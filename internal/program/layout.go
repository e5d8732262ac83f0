package program

import (
	"fmt"

	"rebalance/internal/isa"
)

// DefaultTextBase is where the synthetic text segment starts; the value
// mirrors the classic ELF executable load address.
const DefaultTextBase isa.Addr = 0x400000

// funcAlign is the alignment applied to function entries, matching common
// compiler defaults. Alignment gaps count toward the static footprint just
// as they do in a real binary.
const funcAlign = 16

// Layout assigns addresses to every instruction and dense IDs to every
// block and branch site in the program.
//
// Functions listed in p.Funcs[:librarySplit] are placed at the bottom of
// the text segment (modeling shared-library and early-linked code), then
// the region driver code, then the remaining functions. The placement
// controls whether calls are backward (to lower addresses) or forward,
// which feeds the paper's Table I backward/forward taken split.
func Layout(p *Program, librarySplit int) error {
	if librarySplit < 0 || librarySplit > len(p.Funcs) {
		return fmt.Errorf("layout %s: librarySplit %d out of range [0,%d]", p.Name, librarySplit, len(p.Funcs))
	}
	l := &layouter{cursor: DefaultTextBase}
	p.TextBase = DefaultTextBase

	for _, f := range p.Funcs[:librarySplit] {
		l.layFunc(f)
	}
	for _, r := range p.Regions {
		l.layNode(r.Body)
	}
	for _, f := range p.Funcs[librarySplit:] {
		l.layFunc(f)
	}
	if l.err != nil {
		return fmt.Errorf("layout %s: %w", p.Name, l.err)
	}

	// Second pass: call targets may reference functions laid out after the
	// call site, so they are resolved once every entry point is known.
	fix := func(n Node) {
		switch v := n.(type) {
		case *Call:
			v.Site.Target = v.Callee.Entry
		}
	}
	for _, f := range p.Funcs {
		WalkNodes(f.Body, fix)
	}
	for _, r := range p.Regions {
		WalkNodes(r.Body, fix)
	}

	p.TextSize = int64(l.cursor - p.TextBase)
	p.NumSites = l.nextSite
	p.NumBlocks = l.nextBlock
	return nil
}

type layouter struct {
	cursor    isa.Addr
	nextSite  int
	nextBlock int
	err       error
}

func (l *layouter) align(n isa.Addr) {
	rem := l.cursor % n
	if rem != 0 {
		l.cursor += n - rem
	}
}

func (l *layouter) layBranch(br *Branch) {
	if br == nil {
		l.fail(fmt.Errorf("nil branch during layout"))
		return
	}
	if br.Size == 0 {
		br.Size = 2
	}
	br.ID = l.nextSite
	l.nextSite++
	br.PC = l.cursor
	l.cursor += isa.Addr(br.Size)
}

func (l *layouter) layBlock(b *Block) {
	if b == nil || len(b.Sizes) == 0 {
		l.fail(fmt.Errorf("empty block during layout"))
		return
	}
	b.ID = l.nextBlock
	l.nextBlock++
	b.Addr = l.cursor
	l.cursor += isa.Addr(b.TotalBytes)
}

func (l *layouter) fail(err error) {
	if l.err == nil {
		l.err = err
	}
}

func (l *layouter) layFunc(f *Func) {
	l.align(funcAlign)
	f.Entry = l.cursor
	l.layNode(f.Body)
	l.layBranch(f.Ret)
	if f.Ret != nil && f.Ret.Kind != isa.KindReturn {
		l.fail(fmt.Errorf("func %s: terminator kind %v is not return", f.Name, f.Ret.Kind))
	}
}

func (l *layouter) layNode(n Node) {
	if l.err != nil {
		return
	}
	switch v := n.(type) {
	case nil:
	case *Seq:
		for _, c := range v.Nodes {
			l.layNode(c)
		}
	case *Straight:
		l.layBlock(v.Block)
	case *Loop:
		bodyStart := l.cursor
		l.layNode(v.Body)
		l.layBranch(v.Back)
		if l.err != nil {
			return
		}
		v.Back.Kind = isa.KindCondDirect
		v.Back.Target = bodyStart
		if bodyStart >= v.Back.PC {
			l.fail(fmt.Errorf("loop with empty body at %#x", v.Back.PC))
		}
	case *If:
		l.layBranch(v.Cond)
		if l.err != nil {
			return
		}
		v.Cond.Kind = isa.KindCondDirect
		l.layNode(v.Then)
		if v.Else != nil {
			if v.SkipJump == nil {
				v.SkipJump = &Branch{Size: 2}
			}
			l.layBranch(v.SkipJump)
			v.SkipJump.Kind = isa.KindUncondDirect
			v.Cond.Target = l.cursor // else starts here
			l.layNode(v.Else)
			v.SkipJump.Target = l.cursor // join
		} else {
			v.Cond.Target = l.cursor // join directly after then
		}
		if v.Cond.Target <= v.Cond.PC {
			l.fail(fmt.Errorf("if at %#x has empty then-path", v.Cond.PC))
		}
	case *Call:
		l.layBranch(v.Site)
		if l.err != nil {
			return
		}
		v.Site.Kind = isa.KindCall
		// Target fixed up after all functions are placed.
	case *IndirectCall:
		l.layBranch(v.Site)
		if l.err != nil {
			return
		}
		v.Site.Kind = isa.KindIndirectCall
	case *Switch:
		l.layBranch(v.Site)
		if l.err != nil {
			return
		}
		v.Site.Kind = isa.KindIndirectBranch
		v.CaseJumps = make([]*Branch, len(v.Cases))
		v.CaseAddrs = make([]isa.Addr, len(v.Cases))
		for i, c := range v.Cases {
			v.CaseAddrs[i] = l.cursor
			l.layNode(c)
			j := &Branch{Size: 2, Kind: isa.KindUncondDirect}
			l.layBranch(j)
			j.Kind = isa.KindUncondDirect
			v.CaseJumps[i] = j
		}
		join := l.cursor
		for _, j := range v.CaseJumps {
			j.Target = join
		}
	case *Syscall:
		l.layBranch(v.Site)
		if l.err != nil {
			return
		}
		v.Site.Kind = isa.KindSyscall
	default:
		l.fail(fmt.Errorf("unknown node type %T during layout", n))
	}
}

// WalkNodes calls fn for every node in the subtree rooted at n, in layout
// order (pre-order).
func WalkNodes(n Node, fn func(Node)) {
	if n == nil {
		return
	}
	fn(n)
	switch v := n.(type) {
	case *Seq:
		for _, c := range v.Nodes {
			WalkNodes(c, fn)
		}
	case *Loop:
		WalkNodes(v.Body, fn)
	case *If:
		WalkNodes(v.Then, fn)
		if v.Else != nil {
			WalkNodes(v.Else, fn)
		}
	case *Switch:
		for _, c := range v.Cases {
			WalkNodes(c, fn)
		}
	}
}
