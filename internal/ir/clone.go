package ir

// Clone returns a deep copy of m that keeps every global, function,
// argument, block and instruction ID and both per-function next-ID
// counters, so every VID — and with it every ORAQL pair key — is the
// same in the copy. Compiling the copy leaves m untouched; a compile
// session clones its pristine modules once per compilation instead of
// re-running the frontend.
//
// Constants, types, metadata slices (alias scopes) and global
// initializers are shared: nothing after the frontend writes them.
func (m *Module) Clone() *Module { return m.CloneSharing(nil) }

// CloneSharing is Clone for a module that shares globals with another
// by identity, as the device half of an offload program shares the
// host half's (minic keeps the host-assigned IDs). A global of m with
// a same-named global of the same ID in shared — the already cloned
// other half — resolves to that one instead of a new copy.
func (m *Module) CloneSharing(shared *Module) *Module {
	out := &Module{
		Name:    m.Name,
		Target:  m.Target,
		Globals: make([]*Global, len(m.Globals)),
		Funcs:   make([]*Func, len(m.Funcs)),
		TBAA:    m.TBAA.clone(),
	}
	var sharedByID []*Global
	if shared != nil {
		sharedByID = globalsByID(shared)
	}
	globals := make([]Global, len(m.Globals))
	for i, g := range m.Globals {
		if g.ID < len(sharedByID) && sharedByID[g.ID] != nil && sharedByID[g.ID].Name == g.Name {
			out.Globals[i] = sharedByID[g.ID]
			continue
		}
		globals[i] = *g
		out.Globals[i] = &globals[i]
	}
	byID := globalsByID(out)
	for i, f := range m.Funcs {
		out.Funcs[i] = f.cloneInto(out, byID)
	}
	return out
}

// globalsByID indexes m's globals by ID, which need not be their
// position: a device module lists host globals under host IDs.
func globalsByID(m *Module) []*Global {
	n := 0
	for _, g := range m.Globals {
		n = max(n, g.ID+1)
	}
	out := make([]*Global, n)
	for _, g := range m.Globals {
		out[g.ID] = g
	}
	return out
}

// CloneInto returns a deep copy of f that belongs to module m: its
// global operands resolve to m's globals of the same ID, its parent is
// m, and it keeps f's ID, every argument, block and instruction ID and
// both next-ID counters. The copy is detached — the caller places it,
// e.g. over the slot of the same ID. m must hold f's module's globals
// under the same IDs (a clone of it, or the module itself).
func (f *Func) CloneInto(m *Module) *Func { return f.cloneInto(m, globalsByID(m)) }

func (f *Func) cloneInto(m *Module, globalByID []*Global) *Func {
	nf := &Func{
		Name:        f.Name,
		RetTy:       f.RetTy,
		Attrs:       f.Attrs,
		Parent:      m,
		ID:          f.ID,
		nextInstrID: f.nextInstrID,
		nextBlockID: f.nextBlockID,
	}

	// Size the ID-indexed remap tables and the shared backing arrays.
	nBlockIDs, nInstrIDs, nInstrs, nOps, nRefs := f.nextBlockID, f.nextInstrID, 0, 0, 0
	for _, b := range f.Blocks {
		nBlockIDs = max(nBlockIDs, b.ID+1)
		nInstrs += len(b.Instrs)
		for _, in := range b.Instrs {
			nInstrIDs = max(nInstrIDs, in.ID+1)
			nOps += len(in.Operands)
			nRefs += len(in.Succs) + len(in.Incoming)
		}
	}
	nArgIDs := len(f.Params)
	for _, a := range f.Params {
		nArgIDs = max(nArgIDs, a.ID+1)
	}

	args := make([]Arg, len(f.Params))
	argByID := make([]*Arg, nArgIDs)
	nf.Params = make([]*Arg, len(f.Params))
	for i, a := range f.Params {
		args[i] = *a
		args[i].Func = nf
		nf.Params[i] = &args[i]
		argByID[a.ID] = &args[i]
	}

	blocks := make([]Block, len(f.Blocks))
	blockByID := make([]*Block, nBlockIDs)
	instrs := make([]Instr, 0, nInstrs)
	instrByID := make([]*Instr, nInstrIDs)
	instrSlots := make([]*Instr, nInstrs)
	nf.Blocks = make([]*Block, len(f.Blocks))
	for i, b := range f.Blocks {
		nb := &blocks[i]
		nb.Name, nb.ID, nb.Parent = b.Name, b.ID, nf
		nb.Instrs, instrSlots = instrSlots[:len(b.Instrs):len(b.Instrs)], instrSlots[len(b.Instrs):]
		for j, in := range b.Instrs {
			instrs = append(instrs, *in)
			c := &instrs[len(instrs)-1]
			c.Parent = nb
			nb.Instrs[j] = c
			instrByID[in.ID] = c
		}
		nf.Blocks[i] = nb
		blockByID[b.ID] = nb
	}

	// Remap operands and block references. Each instruction gets a
	// capacity-limited window of one shared array, so a pass appending
	// to one operand list never writes into its neighbour's.
	ops := make([]Value, nOps)
	refs := make([]*Block, nRefs)
	for i := range instrs {
		c := &instrs[i]
		if len(c.Operands) > 0 {
			n := len(c.Operands)
			dst := ops[:n:n]
			ops = ops[n:]
			for k, v := range c.Operands {
				dst[k] = remapValue(v, f, globalByID, argByID, instrByID)
			}
			c.Operands = dst
		}
		c.Succs, refs = remapBlocks(c.Succs, refs, blockByID)
		c.Incoming, refs = remapBlocks(c.Incoming, refs, blockByID)
	}
	return nf
}

// remapValue maps one operand of f into its clone. Values outside f's
// own arguments and instructions — constants, and anything malformed —
// are kept as they are.
func remapValue(v Value, f *Func, globalByID []*Global, argByID []*Arg, instrByID []*Instr) Value {
	switch x := v.(type) {
	case *Instr:
		if x.Parent != nil && x.Parent.Parent == f && x.ID < len(instrByID) && instrByID[x.ID] != nil {
			return instrByID[x.ID]
		}
	case *Arg:
		if x.Func == f && x.ID < len(argByID) && argByID[x.ID] != nil {
			return argByID[x.ID]
		}
	case *Global:
		if x.ID < len(globalByID) && globalByID[x.ID] != nil {
			return globalByID[x.ID]
		}
	}
	return v
}

// remapBlocks copies a block-reference list into the next window of
// refs, translating each block to its clone by ID.
func remapBlocks(in []*Block, refs []*Block, blockByID []*Block) ([]*Block, []*Block) {
	if len(in) == 0 {
		return in, refs
	}
	n := len(in)
	dst := refs[:n:n]
	for k, b := range in {
		if b != nil && b.ID < len(blockByID) && blockByID[b.ID] != nil {
			dst[k] = blockByID[b.ID]
		} else {
			dst[k] = b
		}
	}
	return dst, refs[n:]
}

// clone returns an independent copy of the tag tree.
func (t *TBAATree) clone() *TBAATree {
	if t == nil {
		return nil
	}
	out := &TBAATree{parent: make(map[string]string, len(t.parent)), order: append([]string(nil), t.order...)}
	for k, v := range t.parent {
		out.parent[k] = v
	}
	return out
}
