package difftest

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"strings"

	"github.com/aigrepro/aig/internal/randaig"
)

// Regression is one persisted failing instance: enough to regenerate it
// deterministically ({seed, config}) and re-minimize it ({ops}), plus
// bookkeeping about what diverged.
type Regression struct {
	Seed   int64          `json:"seed"`
	Config randaig.Config `json:"config"`
	Ops    []randaig.Op   `json:"ops,omitempty"`
	// Leg is the oracle leg that diverged when the regression was filed.
	Leg string `json:"leg,omitempty"`
	// Note is a human explanation (what was wrong, when it was fixed).
	Note string `json:"note,omitempty"`
	// Mode selects the oracle to replay the regression under: "" means
	// Check (the evaluation-path matrix), "ivm" means CheckIVM, "certify"
	// means CheckCertify and "fragment" means CheckFragment, each over
	// the recorded mutation sequence, and "recover" means ReplayRecovery.
	// Any other mode is an error.
	Mode string `json:"mode,omitempty"`
	// Remote includes the TCP remote-source leg (Mode "").
	Remote bool `json:"remote,omitempty"`
	// Mutations is the shrunken mutation sequence for Mode "ivm",
	// "certify" and "fragment".
	Mutations []Mutation `json:"mutations,omitempty"`
	// Paths is the fragment path set for Mode "fragment".
	Paths []string `json:"paths,omitempty"`
	// LogCap is the change-log limit CheckIVM ran with (Mode "ivm").
	LogCap int `json:"log_cap,omitempty"`
	// RecoverOps and RecoverCfg are the shrunken operation sequence and
	// torture configuration for Mode "recover" (ReplayRecovery). RecoverCfg
	// pins the diverging crash offset in TruncateAt when one is known.
	RecoverOps []RecoverOp    `json:"recover_ops,omitempty"`
	RecoverCfg *RecoverConfig `json:"recover_cfg,omitempty"`
}

// Instance regenerates the shrunken instance from the recorded seed,
// config and op sequence.
func (r Regression) Instance() (*randaig.Instance, error) {
	inst, err := randaig.Generate(r.Seed, r.Config)
	if err != nil {
		return nil, fmt.Errorf("difftest: regression seed %d: %v", r.Seed, err)
	}
	return inst.ApplyAll(r.Ops)
}

// Replay re-runs the regression under the oracle its Mode names and
// returns the divergence found, nil when the recorded bug stays fixed.
func (r Regression) Replay() (*Divergence, error) {
	switch r.Mode {
	case "":
		inst, err := r.Instance()
		if err != nil {
			return nil, err
		}
		return Check(inst, Options{Remote: r.Remote}).Divergence, nil
	case "recover":
		return ReplayRecovery(r.Seed, r.recoverConfig(), r.RecoverOps).Divergence, nil
	}
	check, err := r.mutationOracle()
	if err != nil {
		return nil, err
	}
	return check(r.Mutations), nil
}

// Shrink minimizes the sequence the regression's mode carries while the
// divergence stays on leg r.Leg: the instance ops for Mode "" (Shrink),
// the mutation sequence for the mutation modes and the operation
// sequence for "recover" (ddmin). It returns the shrunk regression, its
// divergence — nil, with r unchanged, when r does not reproduce — and
// the number of oracle runs spent. budget <= 0 means
// DefaultShrinkBudget.
func (r Regression) Shrink(budget int) (Regression, *Divergence, int, error) {
	switch r.Mode {
	case "":
		inst, err := r.Instance()
		if err != nil {
			return r, nil, 0, err
		}
		res := Shrink(inst, Options{Remote: r.Remote}, &Divergence{Seed: r.Seed, Leg: r.Leg, Detail: r.Note}, budget)
		r.Ops = append(slices.Clip(r.Ops), res.Ops...)
		return r, res.Divergence, res.Checks, nil
	case "recover":
		// Shrinking moves the diverging crash offset: sweep every crash
		// point, then pin the offset the shrunk sequence diverges at.
		cfg := r.recoverConfig()
		cfg.TruncateAt = 0
		var at int64
		ops, div, checks := ddmin(r.RecoverOps, r.Leg, budget, func(ops []RecoverOp) *Divergence {
			out := ReplayRecovery(r.Seed, cfg, ops)
			if out.Divergence != nil && out.Divergence.Leg == r.Leg {
				at = max(out.TruncateAt, 0)
			}
			return out.Divergence
		})
		if div != nil {
			cfg.TruncateAt = at
			r.RecoverOps, r.RecoverCfg = ops, &cfg
		}
		return r, div, checks, nil
	}
	check, err := r.mutationOracle()
	if err != nil {
		return r, nil, 0, err
	}
	var div *Divergence
	var checks int
	r.Mutations, div, checks = ddmin(r.Mutations, r.Leg, budget, check)
	return r, div, checks, nil
}

func (r Regression) recoverConfig() RecoverConfig {
	if r.RecoverCfg == nil {
		return RecoverConfig{}
	}
	return *r.RecoverCfg
}

// mutationOracle binds the oracle of a mutation-sequence mode to the
// regression's regenerated instance.
func (r Regression) mutationOracle() (func([]Mutation) *Divergence, error) {
	inst, err := r.Instance()
	if err != nil {
		return nil, err
	}
	switch r.Mode {
	case "ivm":
		return func(muts []Mutation) *Divergence {
			return CheckIVM(inst, muts, IVMOptions{LogCap: r.LogCap}).Divergence
		}, nil
	case "certify":
		return func(muts []Mutation) *Divergence {
			return CheckCertify(inst, muts, CertifyOptions{}).Divergence
		}, nil
	case "fragment":
		return func(muts []Mutation) *Divergence {
			return CheckFragment(inst, r.Paths, muts, FragmentOptions{}).Divergence
		}, nil
	}
	return nil, fmt.Errorf("difftest: unknown regression mode %q", r.Mode)
}

// SaveRegression writes the regression as seed-<n>.json (or
// seed-<n>-<k>.json when that name is taken) under dir, creating dir if
// needed. It returns the path written.
func SaveRegression(dir string, r Regression) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	data, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return "", err
	}
	data = append(data, '\n')
	base := fmt.Sprintf("seed-%d", r.Seed)
	for k := 0; ; k++ {
		name := base + ".json"
		if k > 0 {
			name = fmt.Sprintf("%s-%d.json", base, k)
		}
		path := filepath.Join(dir, name)
		if _, err := os.Stat(path); err == nil {
			continue
		}
		return path, os.WriteFile(path, data, 0o644)
	}
}

// LoadCorpus reads every *.json regression under dir, keyed by file
// name. A missing directory is an empty corpus, not an error.
func LoadCorpus(dir string) (map[string]Regression, error) {
	entries, err := os.ReadDir(dir)
	if os.IsNotExist(err) {
		return nil, nil
	}
	if err != nil {
		return nil, err
	}
	out := make(map[string]Regression)
	for _, e := range entries {
		if e.IsDir() || !strings.HasSuffix(e.Name(), ".json") {
			continue
		}
		data, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			return nil, err
		}
		var r Regression
		if err := json.Unmarshal(data, &r); err != nil {
			return nil, fmt.Errorf("difftest: corpus file %s: %v", e.Name(), err)
		}
		out[e.Name()] = r
	}
	return out, nil
}
