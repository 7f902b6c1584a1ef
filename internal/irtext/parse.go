// Package irtext parses the textual IR form produced by
// ir.Module.String, enabling opt-style workflows on .ir files and
// print→parse round-trip testing. The grammar is exactly the printer's
// output language:
//
//	; module NAME target=TARGET
//	!tbaa.tag "tag" parent "parent"
//	@name = global [N bytes] [const] [internal] [init.i64 {..}] [init.f64 {..}]
//	define TYPE @name(TYPE [noalias] %p, ...) [attrs] {
//	label:
//	  %x = op operands... [!tbaa "t"] [!dbg file:line:col]
//	  ...
//	}
//
// The parser reads the source in place: lines, names, labels and
// metadata are substrings of it, and each function's instructions,
// operand lists and constants live in a few arrays sized from its
// text.
package irtext

import (
	"fmt"
	"strconv"
	"strings"

	"github.com/oraql/go-oraql/internal/ir"
)

// Parse reads a module from its textual form.
func Parse(src string) (*ir.Module, error) {
	p := &parser{src: src, lines: strings.Count(src, "\n") + 1}
	m, err := p.module()
	if err != nil {
		return nil, fmt.Errorf("irtext: line %d: %w", p.pos+1, err)
	}
	if err := ir.Verify(m); err != nil {
		return nil, fmt.Errorf("irtext: parsed module does not verify: %w", err)
	}
	return m, nil
}

// parser walks the source line by line: pos is the index of the
// current line, off the byte offset where it starts.
type parser struct {
	src   string
	lines int // number of lines, as strings.Split would count them
	pos   int
	off   int

	// Symbol tables: globals and funcs for the module; values and
	// blocks for the body being parsed, cleared for each. raw, ops and
	// refs are scratch that every body reuses.
	globals map[string]*ir.Global
	funcs   map[string]*ir.Func
	values  map[string]ir.Value  // %ident -> value
	blocks  map[string]*ir.Block // label -> block
	raw     []rawInstr
	ops     []ir.Value
	refs    []*ir.Block
}

// line returns the current line, untrimmed, and the offset of the
// next one.
func (p *parser) line() (string, int) {
	rest := p.src[p.off:]
	if i := strings.IndexByte(rest, '\n'); i >= 0 {
		return rest[:i], p.off + i + 1
	}
	return rest, len(p.src) + 1
}

// cur returns the current line, trimmed, skipping blank ones.
func (p *parser) cur() (string, bool) {
	for p.pos < p.lines {
		raw, _ := p.line()
		if l := strings.TrimSpace(raw); l != "" {
			return l, true
		}
		p.advance()
	}
	return "", false
}

func (p *parser) advance() {
	_, p.off = p.line()
	p.pos++
}

// fnExtent is one function in the source: its define line and the
// lines of its body, [start, end) in bytes from line number line.
type fnExtent struct {
	head       string
	start, end int
	line       int
	instrs     int // instruction lines in the body
	labels     int // label lines in the body
}

func (p *parser) module() (*ir.Module, error) {
	head, ok := p.cur()
	if !ok || !strings.HasPrefix(head, "; module ") {
		return nil, fmt.Errorf("expected '; module NAME target=...' header")
	}
	rest := strings.TrimPrefix(head, "; module ")
	fields := strings.Fields(rest)
	if len(fields) < 2 || !strings.HasPrefix(fields[len(fields)-1], "target=") {
		return nil, fmt.Errorf("malformed module header %q", head)
	}
	m := ir.NewModule(strings.Join(fields[:len(fields)-1], " "))
	m.Target = strings.TrimPrefix(fields[len(fields)-1], "target=")
	p.advance()

	// Collect globals, TBAA tags, and function extents; function
	// headers are parsed before any body so forward calls resolve.
	var fns []fnExtent
	for {
		line, ok := p.cur()
		if !ok {
			break
		}
		switch {
		case strings.HasPrefix(line, "!tbaa.tag "):
			if err := p.tbaaTag(m, line); err != nil {
				return nil, err
			}
			p.advance()
		case strings.HasPrefix(line, "@"):
			if err := p.global(m, line); err != nil {
				return nil, err
			}
			p.advance()
		case strings.HasPrefix(line, "define "):
			ext := fnExtent{head: line}
			p.advance()
			ext.start, ext.line = p.off, p.pos
			for {
				l, ok := p.cur()
				if !ok {
					return nil, fmt.Errorf("unterminated function in %q", line)
				}
				if l == "}" {
					ext.end = p.off
					p.advance()
					break
				}
				switch {
				case strings.HasPrefix(l, ";"):
				case isLabel(l):
					ext.labels++
				default:
					ext.instrs++
				}
				p.advance()
			}
			fns = append(fns, ext)
		case strings.HasPrefix(line, ";"):
			p.advance()
		default:
			return nil, fmt.Errorf("unexpected top-level line %q", line)
		}
	}

	p.globals = make(map[string]*ir.Global, len(m.Globals))
	for _, g := range m.Globals {
		if _, dup := p.globals[g.Name]; !dup { // GlobalByName finds the first
			p.globals[g.Name] = g
		}
	}
	// Pass 1: headers.
	p.funcs = make(map[string]*ir.Func, len(fns))
	for _, ext := range fns {
		fn, err := p.header(m, ext.head)
		if err != nil {
			return nil, err
		}
		if _, dup := p.funcs[fn.Name]; !dup {
			p.funcs[fn.Name] = fn
		}
	}
	// Pass 2: bodies, sharing symbol tables sized for the largest.
	maxInstrs, maxLabels := 0, 0
	for i, ext := range fns {
		maxInstrs = max(maxInstrs, ext.instrs+len(m.Funcs[i].Params))
		maxLabels = max(maxLabels, ext.labels)
	}
	p.values = make(map[string]ir.Value, maxInstrs)
	p.blocks = make(map[string]*ir.Block, maxLabels)
	p.raw = make([]rawInstr, 0, maxInstrs)
	for i, ext := range fns {
		if err := p.body(m.Funcs[i], ext); err != nil {
			return nil, err
		}
	}
	return m, nil
}

// isLabel reports whether a trimmed body line is a block label.
func isLabel(l string) bool {
	return strings.HasSuffix(l, ":") && !strings.Contains(l, " ")
}

func (p *parser) tbaaTag(m *ir.Module, line string) error {
	rest := strings.TrimPrefix(line, "!tbaa.tag ")
	tag, rest, err := quoted(rest)
	if err != nil {
		return fmt.Errorf("tbaa.tag: %w", err)
	}
	rest = strings.TrimSpace(rest)
	if !strings.HasPrefix(rest, "parent ") {
		return fmt.Errorf("tbaa.tag: missing parent in %q", line)
	}
	parent, _, err := quoted(strings.TrimPrefix(rest, "parent "))
	if err != nil {
		return fmt.Errorf("tbaa.tag parent: %w", err)
	}
	if !m.TBAA.Has(tag) {
		m.TBAA.Add(tag, parent)
	}
	return nil
}

// quoted consumes a leading Go-quoted string.
func quoted(s string) (string, string, error) {
	s = strings.TrimSpace(s)
	if !strings.HasPrefix(s, `"`) {
		return "", s, fmt.Errorf("expected quoted string in %q", s)
	}
	end := 1
	for end < len(s) {
		if s[end] == '\\' {
			end += 2
			continue
		}
		if s[end] == '"' {
			break
		}
		end++
	}
	if end >= len(s) {
		return "", s, fmt.Errorf("unterminated string in %q", s)
	}
	val, err := strconv.Unquote(s[:end+1])
	if err != nil {
		return "", s, err
	}
	return val, s[end+1:], nil
}

func (p *parser) global(m *ir.Module, line string) error {
	// @name = global [N bytes] [const] [internal] [init.i64 {..}] [init.f64 {..}]
	eq := strings.Index(line, " = global [")
	if eq < 0 {
		return fmt.Errorf("malformed global %q", line)
	}
	g := &ir.Global{Name: line[1:eq]}
	rest := line[eq+len(" = global ["):]
	close1 := strings.Index(rest, " bytes]")
	if close1 < 0 {
		return fmt.Errorf("malformed global size in %q", line)
	}
	size, err := strconv.ParseInt(rest[:close1], 10, 64)
	if err != nil {
		return fmt.Errorf("global size: %w", err)
	}
	g.Size = size
	rest = rest[close1+len(" bytes]"):]
	g.Const = strings.Contains(rest, " const")
	g.Internal = strings.Contains(rest, " internal")
	if i := strings.Index(rest, "init.i64 {"); i >= 0 {
		vals, err := initList(rest[i+len("init.i64 {"):], func(f string) (int64, error) {
			return strconv.ParseInt(f, 10, 64)
		})
		if err != nil {
			return err
		}
		g.InitI64 = vals
	}
	if i := strings.Index(rest, "init.f64 {"); i >= 0 {
		vals, err := initList(rest[i+len("init.f64 {"):], func(f string) (float64, error) {
			return strconv.ParseFloat(f, 64)
		})
		if err != nil {
			return err
		}
		g.InitF64 = vals
	}
	m.AddGlobal(g)
	return nil
}

// initList parses a global's initializer up to its closing brace:
// comma-separated values, blank entries skipped.
func initList[T any](s string, parse func(string) (T, error)) ([]T, error) {
	end := strings.Index(s, "}")
	if end < 0 {
		return nil, fmt.Errorf("unterminated init list")
	}
	s = s[:end]
	var out []T
	for {
		f, rest, more := strings.Cut(s, ",")
		if f = strings.TrimSpace(f); f != "" {
			v, err := parse(f)
			if err != nil {
				return nil, err
			}
			if out == nil {
				out = make([]T, 0, strings.Count(s, ",")+1)
			}
			out = append(out, v)
		}
		if !more {
			return out, nil
		}
		s = rest
	}
}

func parseType(s string) (*ir.Type, error) {
	switch s {
	case "void":
		return ir.Void, nil
	case "i1":
		return ir.I1, nil
	case "i64":
		return ir.I64, nil
	case "double":
		return ir.F64, nil
	case "ptr":
		return ir.Ptr, nil
	case "<4 x double>":
		return ir.V4F64, nil
	case "<4 x i64>":
		return ir.V4I64, nil
	}
	return nil, fmt.Errorf("unknown type %q", s)
}
