// Package xpath implements the fragment query language of the serving
// daemon: a small XPath subset over the XML documents that AIG views
// produce. A path is a sequence of child ("/") or descendant ("//")
// steps, each naming an element label (or "*") and optionally filtered
// by predicates — equality on a child element's text ([name='X']) and
// 1-based position ([2]).
//
// Three matchers share the semantics below verbatim: Select, the
// post-hoc matcher over a rendered tree (the oracle); Stream, which
// matches a document handed to it as the mediator's tag walk emits it
// and writes the matches as they close; and the cursor driving
// aig.EvalPartial, which decides per instance while the document is
// being evaluated. Compiled.Verdict is the static side of the same
// semantics: the grammar edges any of them may need.
//
//   - A path is absolute: the first step is matched against the
//     document root ("/" from a virtual document node whose only child
//     is the root element; "//" reaches every element including the
//     root).
//   - [name='X'] holds when the candidate has at least one child
//     element labeled name whose string value equals X.
//   - [N] is the proximity position among siblings of the same parent
//     that passed the step's name test and every preceding predicate —
//     the standard XPath reading under which //a[2] abbreviates
//     /descendant-or-self::node()/child::a[2].
//   - Matches are outermost-only: a matched element is reported whole
//     and its descendants are not searched further, so a fragment never
//     contains another fragment. Results come in document order.
package xpath

import (
	"fmt"
	"strconv"
	"strings"
)

// Axis distinguishes the two step axes of the subset.
type Axis int

const (
	// Child steps ("/name") match children of the current context.
	Child Axis = iota
	// Descendant steps ("//name") match any strict descendant.
	Descendant
)

// Pred is a step predicate: either ChildEq or Index.
type Pred interface {
	fmt.Stringer
	pred()
}

// ChildEq is the predicate [child='value']: the candidate element has a
// child element labeled Child whose string value equals Value.
type ChildEq struct {
	Child string
	Value string
}

func (ChildEq) pred() {}

// String renders the predicate in its source form, preferring single
// quotes and falling back to double quotes when the value contains one.
func (p ChildEq) String() string {
	q := "'"
	if strings.Contains(p.Value, "'") {
		q = `"`
	}
	return "[" + p.Child + "=" + q + p.Value + q + "]"
}

// Index is the positional predicate [N], 1-based.
type Index struct {
	N int
}

func (Index) pred() {}

// String renders the predicate in its source form.
func (p Index) String() string { return "[" + strconv.Itoa(p.N) + "]" }

// Step is one location step: an axis, a name test (an element label or
// "*"), and predicates applied in source order.
type Step struct {
	Axis  Axis
	Name  string
	Preds []Pred
}

// String renders the step in its source form.
func (s Step) String() string {
	var b strings.Builder
	if s.Axis == Descendant {
		b.WriteString("//")
	} else {
		b.WriteString("/")
	}
	b.WriteString(s.Name)
	for _, p := range s.Preds {
		b.WriteString(p.String())
	}
	return b.String()
}

// Path is a parsed path expression: one or more steps.
type Path struct {
	Steps []Step
}

// String renders the path in canonical source form; Parse(p.String())
// yields a path equal to p.
func (p *Path) String() string {
	var b strings.Builder
	for _, s := range p.Steps {
		b.WriteString(s.String())
	}
	return b.String()
}

// HasPredicates reports whether any step carries a predicate.
func (p *Path) HasPredicates() bool {
	for _, s := range p.Steps {
		if len(s.Preds) > 0 {
			return true
		}
	}
	return false
}

// nameMatches reports whether a step's name test accepts an element
// label.
func nameMatches(test, label string) bool {
	return test == "*" || test == label
}
