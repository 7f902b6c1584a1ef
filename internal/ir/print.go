package ir

import (
	"fmt"
	"strings"
)

// String renders the module in an LLVM-like textual form. The output is
// deterministic, parseable by package irtext (print→parse round-trips),
// and used by tests and the -print-ir flag of oraql-opt. It is Header
// followed by each function's String.
func (m *Module) String() string {
	var sb strings.Builder
	sb.WriteString(m.Header())
	for _, f := range m.Funcs {
		sb.WriteString(f.String())
	}
	return sb.String()
}

// Header renders what String prints before the functions: the module
// line, the TBAA tags and the globals.
func (m *Module) Header() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "; module %s target=%s\n", m.Name, m.Target)
	for _, tag := range m.TBAA.Tags() {
		fmt.Fprintf(&sb, "!tbaa.tag %q parent %q\n", tag, m.TBAA.parent[tag])
	}
	for _, g := range m.Globals {
		attr := ""
		if g.Const {
			attr += " const"
		}
		if g.Internal {
			attr += " internal"
		}
		fmt.Fprintf(&sb, "@%s = global [%d bytes]%s", g.Name, g.Size, attr)
		if len(g.InitI64) > 0 {
			sb.WriteString(" init.i64 {")
			for i, v := range g.InitI64 {
				if i > 0 {
					sb.WriteString(", ")
				}
				fmt.Fprintf(&sb, "%d", v)
			}
			sb.WriteString("}")
		}
		if len(g.InitF64) > 0 {
			sb.WriteString(" init.f64 {")
			for i, v := range g.InitF64 {
				if i > 0 {
					sb.WriteString(", ")
				}
				sb.WriteString(FormatF64(v))
			}
			sb.WriteString("}")
		}
		sb.WriteString("\n")
	}
	return sb.String()
}

// String renders the function body with uniquified local names, so the
// output parses back unambiguously.
func (f *Func) String() string {
	namer := f.buildNamer()
	var sb strings.Builder
	params := make([]string, len(f.Params))
	for i, p := range f.Params {
		na := ""
		if p.NoAlias {
			na = " noalias"
		}
		params[i] = fmt.Sprintf("%s%s %s", p.Ty, na, namer[p])
	}
	attrs := ""
	if f.Attrs.Kernel {
		attrs += " kernel"
	}
	if f.Attrs.Outlined {
		attrs += " outlined"
	}
	if f.Attrs.ReadOnly {
		attrs += " readonly"
	}
	if f.Attrs.ReadNone {
		attrs += " readnone"
	}
	fmt.Fprintf(&sb, "\ndefine %s @%s(%s)%s {\n", f.RetTy, f.Name, strings.Join(params, ", "), attrs)
	for _, b := range f.Blocks {
		fmt.Fprintf(&sb, "%s:\n", b.Name)
		for _, in := range b.Instrs {
			if in.dead {
				continue
			}
			fmt.Fprintf(&sb, "  %s\n", in.format(namer))
		}
	}
	sb.WriteString("}\n")
	return sb.String()
}

// buildNamer assigns a unique printed ident to every param and live
// instruction (colliding names get ".N" suffixes).
func (f *Func) buildNamer() map[Value]string {
	namer := map[Value]string{}
	taken := map[string]int{}
	assign := func(v Value, base string) {
		n, dup := taken[base]
		taken[base] = n + 1
		if dup {
			namer[v] = fmt.Sprintf("%%%s.%d", base, n)
			return
		}
		namer[v] = "%" + base
	}
	for _, p := range f.Params {
		assign(p, p.Name)
	}
	for _, b := range f.Blocks {
		for _, in := range b.Instrs {
			if in.dead || in.Ty == Void {
				continue
			}
			base := in.Name
			if base == "" {
				base = fmt.Sprintf("t%d", in.ID)
			}
			assign(in, base)
		}
	}
	return namer
}

// String renders one instruction without function context (names may
// collide across instructions; use Func.String for parseable output).
func (in *Instr) String() string { return in.format(nil) }

// format renders one instruction, resolving idents through namer when
// provided.
func (in *Instr) format(namer map[Value]string) string {
	ident := func(v Value) string {
		if namer != nil {
			if s, ok := namer[v]; ok {
				return s
			}
		}
		return v.Ident()
	}
	var sb strings.Builder
	if in.Ty != Void {
		fmt.Fprintf(&sb, "%s = ", ident(in))
	}
	switch in.Op {
	case OpAlloca:
		fmt.Fprintf(&sb, "alloca %d", in.Size)
	case OpLoad:
		fmt.Fprintf(&sb, "load %s, %s", in.Ty, ident(in.Operands[0]))
	case OpStore:
		fmt.Fprintf(&sb, "store %s %s, %s", in.Operands[0].Type(), ident(in.Operands[0]), ident(in.Operands[1]))
	case OpGEP:
		if len(in.Operands) > 1 {
			fmt.Fprintf(&sb, "gep %s + %s*%d + %d", ident(in.Operands[0]), ident(in.Operands[1]), in.Scale, in.Off)
		} else {
			fmt.Fprintf(&sb, "gep %s + %d", ident(in.Operands[0]), in.Off)
		}
	case OpMemCpy:
		fmt.Fprintf(&sb, "memcpy %s <- %s, %s", ident(in.Operands[0]), ident(in.Operands[1]), ident(in.Operands[2]))
	case OpMemSet:
		fmt.Fprintf(&sb, "memset %s, %s, %s", ident(in.Operands[0]), ident(in.Operands[1]), ident(in.Operands[2]))
	case OpICmp, OpFCmp:
		fmt.Fprintf(&sb, "%s %s %s, %s", in.Op, in.Pred, ident(in.Operands[0]), ident(in.Operands[1]))
	case OpPhi:
		fmt.Fprintf(&sb, "phi %s ", in.Ty)
		for i, v := range in.Operands {
			if i > 0 {
				sb.WriteString(", ")
			}
			fmt.Fprintf(&sb, "[%s, %%%s]", ident(v), in.Incoming[i].Name)
		}
	case OpCall:
		args := make([]string, len(in.Operands))
		for i, v := range in.Operands {
			args[i] = ident(v)
		}
		fmt.Fprintf(&sb, "call %s @%s(%s)", in.Ty, in.Callee, strings.Join(args, ", "))
	case OpBr:
		if len(in.Succs) == 2 {
			fmt.Fprintf(&sb, "br %s, %%%s, %%%s", ident(in.Operands[0]), in.Succs[0].Name, in.Succs[1].Name)
		} else {
			fmt.Fprintf(&sb, "br %%%s", in.Succs[0].Name)
		}
	case OpRet:
		if len(in.Operands) > 0 {
			fmt.Fprintf(&sb, "ret %s", ident(in.Operands[0]))
		} else {
			sb.WriteString("ret void")
		}
	default:
		ops := make([]string, len(in.Operands))
		for i, v := range in.Operands {
			ops[i] = ident(v)
		}
		fmt.Fprintf(&sb, "%s %s", in.Op, strings.Join(ops, ", "))
	}
	if in.TBAA != "" {
		fmt.Fprintf(&sb, " !tbaa %q", in.TBAA)
	}
	if len(in.Scopes) > 0 {
		fmt.Fprintf(&sb, " !alias.scope %v", in.Scopes)
	}
	if len(in.NoAliasScope) > 0 {
		fmt.Fprintf(&sb, " !noalias %v", in.NoAliasScope)
	}
	if in.Loc.IsValid() {
		fmt.Fprintf(&sb, " !dbg %s", in.Loc)
	}
	return sb.String()
}
