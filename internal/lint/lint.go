// Package lint is the diagnostic engine behind the aiglint tool: it runs
// the static analyses of the paper (§3.1 validation, §4 termination /
// reachability / rule classification) plus a set of spec-hygiene checks
// over a parsed AIG and reports the findings as structured diagnostics
// with stable codes and source positions, instead of a single joined
// error.
//
// Diagnostic codes are stable across releases so CI configurations and
// editors can filter on them:
//
//	AIG001  spec does not parse
//	AIG002  rule query can never return a row (§4 satisfiability)
//	AIG003  evaluation may not terminate (§4 termination)
//	AIG004  element type unreachable or never produced (§4 reachability)
//	AIG005  choice branch can never be selected
//	AIG006  query references an undeclared source, table or column
//	AIG007  semantic rule fails validation (§3.1 type compatibility)
//	AIG008  XML constraint inconsistent with the DTD or vacuous
//	AIG009  copy rule that copy elimination (§4) cannot collapse
//	AIG010  attribute member declared but never referenced
//	AIG011  spec declares no sources section
//	AIG012  constraint not statically guaranteed (§5 certification)
//	AIG013  source constraint unused by any certification proof
//	AIG014  inclusion constraint provably violated
package lint

import (
	"fmt"
	"sort"
	"strings"

	"github.com/aigrepro/aig/internal/aig"
	"github.com/aigrepro/aig/internal/aigspec"
	"github.com/aigrepro/aig/internal/srcpos"
)

// The diagnostic codes.
const (
	CodeParse          = "AIG001"
	CodeUnsatisfiable  = "AIG002"
	CodeNonTermination = "AIG003"
	CodeUnreachable    = "AIG004"
	CodeDeadBranch     = "AIG005"
	CodeUnresolved     = "AIG006"
	CodeRuleCheck      = "AIG007"
	CodeConstraint     = "AIG008"
	CodeCopyChain      = "AIG009"
	CodeUnusedMember   = "AIG010"
	CodeNoSources      = "AIG011"
	CodeUncertified    = "AIG012"
	CodeUnusedSource   = "AIG013"
	CodeViolated       = "AIG014"
)

// Severity ranks a diagnostic. Errors make aiglint exit non-zero;
// warnings and infos are advisory.
type Severity uint8

// The severities, in increasing order of gravity.
const (
	Info Severity = iota
	Warning
	Error
)

func (s Severity) String() string {
	switch s {
	case Info:
		return "info"
	case Warning:
		return "warning"
	case Error:
		return "error"
	default:
		return fmt.Sprintf("severity(%d)", uint8(s))
	}
}

// MarshalText implements encoding.TextMarshaler so JSON output renders
// severities as their names.
func (s Severity) MarshalText() ([]byte, error) { return []byte(s.String()), nil }

// Diagnostic is one finding, located in the spec source when the
// position is known (Line and Col are 0 for findings with no natural
// source anchor, such as whole-grammar properties of programmatically
// built AIGs).
type Diagnostic struct {
	File     string   `json:"file"`
	Line     int      `json:"line"`
	Col      int      `json:"col"`
	Severity Severity `json:"severity"`
	Code     string   `json:"code"`
	Message  string   `json:"message"`
	// Hint, when non-empty, suggests why the finding may be intentional
	// or how to fix it.
	Hint string `json:"hint,omitempty"`
}

// Pos returns the diagnostic's source position.
func (d Diagnostic) Pos() srcpos.Pos { return srcpos.At(d.Line, d.Col) }

// String renders the diagnostic in the conventional
// file:line:col: severity: message [CODE] form.
func (d Diagnostic) String() string {
	var b strings.Builder
	b.WriteString(d.File)
	if d.Line > 0 {
		fmt.Fprintf(&b, ":%d:%d", d.Line, d.Col)
	}
	fmt.Fprintf(&b, ": %s: %s [%s]", d.Severity, d.Message, d.Code)
	return b.String()
}

// Source parses spec text and lints the resulting grammar. Parse
// failures are reported as AIG001 diagnostics rather than an error, so
// callers handle malformed and well-formed specs uniformly.
func Source(file, text string) []Diagnostic {
	a, err := aigspec.Parse(text)
	if err != nil {
		p := srcpos.PosOf(err)
		return []Diagnostic{{
			File: file, Line: p.Line, Col: p.Col,
			Severity: Error, Code: CodeParse,
			Message: stripPos(err.Error(), p),
		}}
	}
	return Grammar(file, a)
}

// Grammar lints an already-parsed AIG. The file name is used only to
// label diagnostics.
func Grammar(file string, a *aig.AIG) []Diagnostic {
	c := &checker{file: file, aig: a}
	c.run()
	sort.SliceStable(c.diags, func(i, j int) bool {
		di, dj := c.diags[i], c.diags[j]
		if di.Line != dj.Line {
			return di.Line < dj.Line
		}
		if di.Col != dj.Col {
			return di.Col < dj.Col
		}
		if di.Code != dj.Code {
			return di.Code < dj.Code
		}
		return di.Message < dj.Message
	})
	return c.diags
}

// stripPos removes the leading "line:col: " that srcpos.Error rendering
// adds, since Diagnostic carries the position structurally.
func stripPos(msg string, p srcpos.Pos) string {
	if !p.IsValid() {
		return msg
	}
	prefix := fmt.Sprintf("%d:%d: ", p.Line, p.Col)
	return strings.TrimPrefix(msg, prefix)
}
