package ir

import "slices"

// Clone returns a copy of m that keeps every global, function,
// argument, block and instruction ID and both per-function next-ID
// counters, so every VID — and with it every ORAQL pair key — is the
// same in the copy. Compiling the copy leaves m untouched; a compile
// session clones its pristine modules instead of re-running the
// frontend.
//
// Only function bodies are copied. What nothing after the frontend
// writes is shared: globals, the TBAA tree, constants, types, metadata
// slices (alias scopes) and global initializers. A clone of the device
// half of an offload program therefore keeps sharing the host half's
// globals, as the frontend's output does.
func (m *Module) Clone() *Module {
	out := &Module{
		Name:    m.Name,
		Target:  m.Target,
		Globals: slices.Clone(m.Globals),
		Funcs:   make([]*Func, len(m.Funcs)),
		TBAA:    m.TBAA,
	}
	for i, f := range m.Funcs {
		out.Funcs[i] = f.CloneInto(out)
	}
	return out
}

// CloneInto returns a deep copy of f whose parent is m. The copy keeps
// f's ID, every argument, block and instruction ID and both next-ID
// counters, and its global operands stay f's own, so m must list the
// same globals (f's module, or a clone of it). The copy is detached —
// the caller places it, e.g. over the slot of the same ID.
func (f *Func) CloneInto(m *Module) *Func {
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
				dst[k] = remapValue(v, f, argByID, instrByID)
			}
			c.Operands = dst
		}
		c.Succs, refs = remapBlocks(c.Succs, refs, blockByID)
		c.Incoming, refs = remapBlocks(c.Incoming, refs, blockByID)
	}
	return nf
}

// remapValue maps one operand of f into its clone. Values outside f's
// own arguments and instructions — constants, globals, and anything
// malformed — are kept as they are.
func remapValue(v Value, f *Func, argByID []*Arg, instrByID []*Instr) Value {
	switch x := v.(type) {
	case *Instr:
		if x.Parent != nil && x.Parent.Parent == f && x.ID < len(instrByID) && instrByID[x.ID] != nil {
			return instrByID[x.ID]
		}
	case *Arg:
		if x.Func == f && x.ID < len(argByID) && argByID[x.ID] != nil {
			return argByID[x.ID]
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
