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
package irtext

import (
	"fmt"
	"strconv"
	"strings"

	"github.com/oraql/go-oraql/internal/ir"
)

// Parse reads a module from its textual form.
func Parse(src string) (*ir.Module, error) {
	p := &parser{lines: strings.Split(src, "\n")}
	m, err := p.module()
	if err != nil {
		return nil, fmt.Errorf("irtext: line %d: %w", p.pos+1, err)
	}
	if err := ir.Verify(m); err != nil {
		return nil, fmt.Errorf("irtext: parsed module does not verify: %w", err)
	}
	return m, nil
}

type parser struct {
	lines []string
	pos   int
}

func (p *parser) cur() (string, bool) {
	for p.pos < len(p.lines) {
		l := strings.TrimSpace(p.lines[p.pos])
		if l == "" {
			p.pos++
			continue
		}
		return l, true
	}
	return "", false
}

func (p *parser) advance() { p.pos++ }

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
	type fnExtent struct {
		head       string
		start, end int // body line range [start, end)
	}
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
			ext.start = p.pos
			for {
				l, ok := p.cur()
				if !ok {
					return nil, fmt.Errorf("unterminated function in %q", line)
				}
				if l == "}" {
					ext.end = p.pos
					p.advance()
					break
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
	// Pass 1: headers.
	parsers := make([]*funcParser, len(fns))
	for i, ext := range fns {
		n := ext.end - ext.start // body lines: at most that many values
		fp := &funcParser{m: m, values: make(map[string]ir.Value, n), blocks: map[string]*ir.Block{},
			raw: make([]rawInstr, 0, n)}
		if err := fp.header(ext.head); err != nil {
			return nil, err
		}
		parsers[i] = fp
	}
	// Pass 2: bodies.
	for i, ext := range fns {
		if err := parsers[i].body(p.lines[ext.start:ext.end], ext.start); err != nil {
			return nil, err
		}
	}
	return m, nil
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
		vals, err := intList(rest[i+len("init.i64 {"):])
		if err != nil {
			return err
		}
		g.InitI64 = vals
	}
	if i := strings.Index(rest, "init.f64 {"); i >= 0 {
		vals, err := floatList(rest[i+len("init.f64 {"):])
		if err != nil {
			return err
		}
		g.InitF64 = vals
	}
	m.AddGlobal(g)
	return nil
}

func intList(s string) ([]int64, error) {
	end := strings.Index(s, "}")
	if end < 0 {
		return nil, fmt.Errorf("unterminated init list")
	}
	var out []int64
	for _, f := range strings.Split(s[:end], ",") {
		f = strings.TrimSpace(f)
		if f == "" {
			continue
		}
		v, err := strconv.ParseInt(f, 10, 64)
		if err != nil {
			return nil, err
		}
		out = append(out, v)
	}
	return out, nil
}

func floatList(s string) ([]float64, error) {
	end := strings.Index(s, "}")
	if end < 0 {
		return nil, fmt.Errorf("unterminated init list")
	}
	var out []float64
	for _, f := range strings.Split(s[:end], ",") {
		f = strings.TrimSpace(f)
		if f == "" {
			continue
		}
		v, err := strconv.ParseFloat(f, 64)
		if err != nil {
			return nil, err
		}
		out = append(out, v)
	}
	return out, nil
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
