package main

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"time"

	"github.com/aigrepro/aig/internal/hospital"
)

// repoRoot finds the checkout: the nearest directory at or above the
// working directory that holds BENCHMARK.json.
func repoRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "BENCHMARK.json")); err == nil {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", fmt.Errorf("BENCHMARK.json not found at or above the working directory")
		}
		dir = parent
	}
}

// buildDaemon compiles the aigd of this tree into outDir. The go tool
// skips the work when nothing changed since the last run.
func buildDaemon(root, outDir string) (string, error) {
	bin := filepath.Join(outDir, "aigd")
	cmd := exec.Command("go", "build", "-o", bin, "./cmd/aigd")
	cmd.Dir = root
	if out, err := cmd.CombinedOutput(); err != nil {
		return "", fmt.Errorf("building aigd: %v\n%s", err, out)
	}
	return bin, nil
}

// writeInputs stores what the daemon is fed: the generated catalog as CSV
// directories and the hospital spec.
func (f *fixture) writeInputs(dir string) (dataDir, specFile string, err error) {
	dataDir = filepath.Join(dir, "data")
	for _, name := range f.cat.DatabaseNames() {
		db, err := f.cat.Database(name)
		if err != nil {
			return "", "", err
		}
		if err := db.SaveDir(filepath.Join(dataDir, name)); err != nil {
			return "", "", err
		}
	}
	specFile = filepath.Join(dir, "report.aig")
	if err := os.WriteFile(specFile, []byte(hospital.SpecText), 0o644); err != nil {
		return "", "", err
	}
	return dataDir, specFile, nil
}

// daemon is one running aigd child.
type daemon struct {
	cmd    *exec.Cmd
	base   string // http://127.0.0.1:port
	args   []string
	stderr bytes.Buffer
	wait   chan error // receives cmd.Wait's result once
}

// freePort asks the kernel for an unused loopback port. The daemon binds
// it a moment later; the benchmark runs one daemon at a time, so nothing
// else of ours races for it.
func freePort() (int, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	defer l.Close()
	return l.Addr().(*net.TCPAddr).Port, nil
}

// startDaemon spawns aigd and returns once /healthz answers 200.
func startDaemon(bin string, args []string) (*daemon, error) {
	port, err := freePort()
	if err != nil {
		return nil, err
	}
	addr := "127.0.0.1:" + strconv.Itoa(port)
	d := &daemon{base: "http://" + addr}
	d.args = append([]string{"-addr", addr}, args...)
	d.cmd = exec.Command(bin, d.args...)
	d.cmd.Stderr = &d.stderr
	if err := d.cmd.Start(); err != nil {
		return nil, err
	}
	exited := make(chan error, 1)
	go func() { exited <- d.cmd.Wait() }()
	deadline := time.Now().Add(60 * time.Second)
	for {
		resp, err := http.Get(d.base + "/healthz")
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				d.wait = exited
				return d, nil
			}
		}
		select {
		case werr := <-exited:
			return nil, fmt.Errorf("aigd exited before becoming ready: %v\n%s", werr, d.stderr.String())
		default:
		}
		if time.Now().After(deadline) {
			d.cmd.Process.Kill()
			<-exited
			return nil, fmt.Errorf("aigd not ready after 60s\n%s", d.stderr.String())
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// stop drains the daemon with SIGTERM and waits until it has ended.
func (d *daemon) stop() error {
	if err := d.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		return err
	}
	select {
	case err := <-d.wait:
		if err != nil {
			return fmt.Errorf("aigd exit: %v\n%s", err, d.stderr.String())
		}
		return nil
	case <-time.After(20 * time.Second):
		d.cmd.Process.Kill()
		<-d.wait
		return fmt.Errorf("aigd did not stop within 20s of SIGTERM")
	}
}

func (d *daemon) commandLine(bin string) string {
	return strings.Join(append([]string{filepath.Base(bin)}, d.args...), " ")
}

// peakRSSMB reads the child's resident-set high-water mark.
func (d *daemon) peakRSSMB() (float64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", d.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			fields := strings.Fields(rest)
			if len(fields) == 0 {
				break
			}
			kb, err := strconv.ParseFloat(fields[0], 64)
			if err != nil {
				return 0, err
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("VmHWM not found in /proc status")
}

// scrape reads the daemon's /metrics into name → value, keeping plain
// (label-free) series, which is what the serve counters are.
func (d *daemon) scrape() (map[string]float64, error) {
	resp, err := http.Get(d.base + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("/metrics: status %d", resp.StatusCode)
	}
	out := make(map[string]float64)
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 64<<10), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		if strings.HasPrefix(line, "#") || strings.ContainsAny(line, "{") {
			continue
		}
		name, val, ok := strings.Cut(line, " ")
		if !ok {
			continue
		}
		if v, err := strconv.ParseFloat(strings.Fields(val)[0], 64); err == nil {
			out[name] = v
		}
	}
	return out, sc.Err()
}
