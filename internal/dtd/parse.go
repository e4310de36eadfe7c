package dtd

import (
	"fmt"
	"strings"
	"unicode"

	"github.com/aigrepro/aig/internal/srcpos"
)

// General is a DTD whose content models are arbitrary regular expressions,
// the result of parsing DTD text. Simplify converts it to the restricted
// form the AIG machinery works with.
type General struct {
	Root    string
	Content map[string]Regex
	// Order preserves declaration order for deterministic output.
	Order []string
	// Pos records where each element was declared (position of the name
	// token), for positioned diagnostics. Keys match Content.
	Pos map[string]srcpos.Pos
}

// ParseGeneral parses DTD text consisting of <!ELEMENT name content>
// declarations. The root type is the first declared element. Comments
// (<!-- ... -->) and blank space between declarations are ignored.
// Parse errors are *srcpos.Error values carrying the line and column
// within input where the problem was detected.
func ParseGeneral(input string) (*General, error) {
	g := &General{Content: make(map[string]Regex), Pos: make(map[string]srcpos.Pos)}
	rest := input
	tr := srcpos.NewTracker(input)
	at := func() srcpos.Pos { return tr.At(len(input) - len(rest)) }
	for {
		rest = strings.TrimLeftFunc(rest, unicode.IsSpace)
		if rest == "" {
			break
		}
		if strings.HasPrefix(rest, "<!--") {
			end := strings.Index(rest, "-->")
			if end < 0 {
				return nil, srcpos.Errorf(at(), "dtd: unterminated comment")
			}
			rest = rest[end+3:]
			continue
		}
		declPos := at()
		if !strings.HasPrefix(rest, "<!ELEMENT") {
			return nil, srcpos.Errorf(declPos, "dtd: expected <!ELEMENT, found %q", firstLine(rest))
		}
		end := strings.Index(rest, ">")
		if end < 0 {
			return nil, srcpos.Errorf(declPos, "dtd: unterminated declaration %q", firstLine(rest))
		}
		base := len(input) - len(rest) + len("<!ELEMENT")
		decl := rest[len("<!ELEMENT"):end]
		rest = rest[end+1:]
		name, namePos, content, err := parseElementDecl(tr, base, decl)
		if err != nil {
			return nil, err
		}
		if _, dup := g.Content[name]; dup {
			return nil, srcpos.Errorf(namePos, "dtd: element %q declared twice", name)
		}
		g.Content[name] = content
		g.Order = append(g.Order, name)
		g.Pos[name] = namePos
		if g.Root == "" {
			g.Root = name
		}
	}
	if g.Root == "" {
		return nil, fmt.Errorf("dtd: no element declarations")
	}
	return g, nil
}

// MustParseGeneral is ParseGeneral panicking on error.
func MustParseGeneral(input string) *General {
	g, err := ParseGeneral(input)
	if err != nil {
		panic(err)
	}
	return g
}

func firstLine(s string) string {
	if i := strings.IndexByte(s, '\n'); i >= 0 {
		s = s[:i]
	}
	if len(s) > 60 {
		s = s[:60] + "..."
	}
	return s
}

// parseElementDecl parses the body of one <!ELEMENT ...> declaration.
// decl starts at byte offset base within the tracked DTD text; errors
// carry positions relative to that text.
func parseElementDecl(tr *srcpos.Tracker, base int, decl string) (string, srcpos.Pos, Regex, error) {
	p := &contentParser{input: decl, tr: tr, base: base}
	p.skipSpace()
	nameOff := p.pos
	name := p.ident()
	if name == "" {
		return "", srcpos.Pos{}, nil, srcpos.Errorf(p.at(), "dtd: missing element name in %q", decl)
	}
	namePos := tr.At(base + nameOff)
	p.skipSpace()
	switch {
	case p.consumeWord("EMPTY"):
		p.skipSpace()
		if !p.atEnd() {
			return "", srcpos.Pos{}, nil, srcpos.Errorf(p.at(), "dtd: junk after EMPTY in %q", decl)
		}
		return name, namePos, REmpty{}, nil
	case p.consumeWord("ANY"):
		return "", srcpos.Pos{}, nil, srcpos.Errorf(namePos, "dtd: ANY content is not supported (element %q)", name)
	}
	r, err := p.parseGroup()
	if err != nil {
		return "", srcpos.Pos{}, nil, fmt.Errorf("dtd: element %q: %w", name, err)
	}
	p.skipSpace()
	if !p.atEnd() {
		return "", srcpos.Pos{}, nil, srcpos.Errorf(p.at(), "dtd: junk after content model of %q: %q", name, p.rest())
	}
	return name, namePos, r, nil
}

type contentParser struct {
	input string
	pos   int
	// tr and base map positions within input back into the whole DTD
	// text for error reporting: input starts at byte base of the tracked
	// text.
	tr   *srcpos.Tracker
	base int
}

// at is the parser's current position within the whole DTD text.
func (p *contentParser) at() srcpos.Pos { return p.tr.At(p.base + p.pos) }

func (p *contentParser) atEnd() bool  { return p.pos >= len(p.input) }
func (p *contentParser) rest() string { return p.input[p.pos:] }
func (p *contentParser) peek() byte {
	if p.atEnd() {
		return 0
	}
	return p.input[p.pos]
}

func (p *contentParser) skipSpace() {
	for !p.atEnd() && unicode.IsSpace(rune(p.input[p.pos])) {
		p.pos++
	}
}

func (p *contentParser) ident() string {
	start := p.pos
	for !p.atEnd() {
		c := p.input[p.pos]
		if c == '_' || c == '-' || c == '.' ||
			('a' <= c && c <= 'z') || ('A' <= c && c <= 'Z') || ('0' <= c && c <= '9') {
			p.pos++
			continue
		}
		break
	}
	return p.input[start:p.pos]
}

func (p *contentParser) consumeWord(w string) bool {
	if strings.HasPrefix(p.input[p.pos:], w) {
		after := p.pos + len(w)
		if after >= len(p.input) || !isNameByte(p.input[after]) {
			p.pos = after
			return true
		}
	}
	return false
}

func isNameByte(c byte) bool {
	return c == '_' || c == '-' || c == '.' ||
		('a' <= c && c <= 'z') || ('A' <= c && c <= 'Z') || ('0' <= c && c <= '9')
}

// parseGroup parses a parenthesized group: '(' item (sep item)* ')' with a
// consistent separator (',' for sequence, '|' for choice), followed by an
// optional repetition suffix.
func (p *contentParser) parseGroup() (Regex, error) {
	p.skipSpace()
	if p.peek() != '(' {
		return nil, srcpos.Errorf(p.at(), "expected '(', found %q", p.rest())
	}
	p.pos++
	var items []Regex
	sep := byte(0)
	for {
		item, err := p.parseItem()
		if err != nil {
			return nil, err
		}
		items = append(items, item)
		p.skipSpace()
		switch p.peek() {
		case ',', '|':
			c := p.peek()
			if sep == 0 {
				sep = c
			} else if sep != c {
				return nil, srcpos.Errorf(p.at(), "mixed ',' and '|' in one group")
			}
			p.pos++
		case ')':
			p.pos++
			var r Regex
			if len(items) == 1 {
				r = items[0]
			} else if sep == '|' {
				r = RChoice{Items: items}
			} else {
				r = RSeq{Items: items}
			}
			return p.applySuffix(r), nil
		case 0:
			return nil, srcpos.Errorf(p.at(), "unterminated group")
		default:
			return nil, srcpos.Errorf(p.at(), "unexpected %q in group", p.rest())
		}
	}
}

func (p *contentParser) parseItem() (Regex, error) {
	p.skipSpace()
	switch {
	case p.peek() == '(':
		return p.parseGroup()
	case strings.HasPrefix(p.rest(), TextType):
		p.pos += len(TextType)
		return p.applySuffix(RText{}), nil
	default:
		name := p.ident()
		if name == "" {
			return nil, srcpos.Errorf(p.at(), "expected element name, found %q", p.rest())
		}
		return p.applySuffix(RName{Name: name}), nil
	}
}

func (p *contentParser) applySuffix(r Regex) Regex {
	switch p.peek() {
	case '*':
		p.pos++
		return RStar{Item: r}
	case '+':
		p.pos++
		return RPlus{Item: r}
	case '?':
		p.pos++
		return ROpt{Item: r}
	}
	return r
}

// String renders the general DTD as declarations in declaration order.
func (g *General) String() string {
	var b strings.Builder
	for _, name := range g.Order {
		fmt.Fprintf(&b, "<!ELEMENT %s %s>\n", name, contentString(g.Content[name]))
	}
	return b.String()
}

// contentString renders a content model as an <!ELEMENT> declaration
// writes it: parenthesized unless EMPTY or already a group.
func contentString(r Regex) string {
	content := r.String()
	if _, isEmpty := r.(REmpty); !isEmpty && !strings.HasPrefix(content, "(") {
		content = "(" + content + ")"
	}
	return content
}
