package sim

import (
	"math/bits"

	"rebalance/internal/analysis"
	"rebalance/internal/bpred"
	"rebalance/internal/btb"
	"rebalance/internal/icache"
	"rebalance/internal/isa"
)

// The per-instruction reference models: what each lane consumer computed one
// isa.Inst at a time before it read fetch runs, kept as the oracle the
// differential tests in lane_test.go hold the consumers to. They share no
// code with the simulators — the set-associative arrays are their own — and
// fill the simulators' exported result types, so agreement is checked on the
// AppendJSON bytes a report carries.

func phaseOf(in *isa.Inst) int {
	if in.Serial {
		return 0
	}
	return 1
}

// icacheModel is the Section IV-C fetch model per instruction: probe when
// the instruction's line is not the one fetch is extracting from, mark the
// sectors it covers, probe and mark the next line when it straddles, and
// forget the current line after a taken branch.
type icacheModel struct {
	res      icache.Result
	sets     int
	lines    []modelLine
	clock    uint64
	lastLine uint64 // last line address fetched from, +1 (0 = none)
	lastPtr  *modelLine
}

type modelLine struct {
	valid bool
	tag   uint64
	lru   uint64
	used  uint16 // consumed 8-byte sectors since fill
}

func newICacheModel(sizeBytes, lineBytes, ways int) *icacheModel {
	// A fresh simulator's result carries the geometry and its legend name.
	return &icacheModel{
		res:   *icache.New(sizeBytes, lineBytes, ways).Result(),
		sets:  sizeBytes / lineBytes / ways,
		lines: make([]modelLine, sizeBytes/lineBytes),
	}
}

func (c *icacheModel) Observe(in isa.Inst) {
	p := phaseOf(&in)
	c.res.Insts[p]++
	lineBytes := uint64(c.res.LineBytes)
	lineAddr := uint64(in.PC) / lineBytes
	if lineAddr+1 != c.lastLine {
		c.lastPtr = c.access(lineAddr, p)
		c.lastLine = lineAddr + 1
	}
	c.markUse(c.lastPtr, uint64(in.PC), int(in.Size))
	endAddr := uint64(in.PC) + uint64(in.Size) - 1
	if endLine := endAddr / lineBytes; endLine != lineAddr {
		c.lastPtr = c.access(endLine, p)
		c.lastLine = endLine + 1
		c.markUse(c.lastPtr, endLine*lineBytes, int(endAddr%lineBytes)+1)
	}
	if in.Kind.IsBranch() && in.Taken {
		c.lastLine, c.lastPtr = 0, nil
	}
}

func (c *icacheModel) access(lineAddr uint64, p int) *modelLine {
	c.res.Accesses[p]++
	c.clock++
	set := c.lines[int(lineAddr%uint64(c.sets))*c.res.Ways:][:c.res.Ways]
	tag := lineAddr / uint64(c.sets)
	for w := range set {
		if set[w].valid && set[w].tag == tag {
			set[w].lru = c.clock
			return &set[w]
		}
	}
	c.res.Misses[p]++
	victim := &set[0]
	for w := range set {
		if !set[w].valid {
			victim = &set[w]
			break
		}
		if set[w].lru < victim.lru {
			victim = &set[w]
		}
	}
	retireModelLine(&c.res, victim)
	*victim = modelLine{valid: true, tag: tag, lru: c.clock}
	return victim
}

func (c *icacheModel) markUse(l *modelLine, pc uint64, size int) {
	const sectorBytes = 8
	off := int(pc % uint64(c.res.LineBytes))
	last := (off + size - 1) / sectorBytes
	if last >= c.res.LineBytes/sectorBytes {
		last = c.res.LineBytes/sectorBytes - 1
	}
	for s := off / sectorBytes; s <= last; s++ {
		l.used |= 1 << s
	}
}

func retireModelLine(r *icache.Result, l *modelLine) {
	if l.valid {
		r.TotalSectors += int64(r.LineBytes / 8)
		r.UsedSectors += int64(bits.OnesCount16(l.used))
	}
}

func (c *icacheModel) Result() *icache.Result {
	r := c.res
	for i := range c.lines {
		retireModelLine(&r, &c.lines[i])
	}
	return &r
}

// btbModel is the Section IV-B simulator per instruction: every instruction
// counts, a taken branch probes and allocates.
type btbModel struct {
	res   btb.Result
	sets  int
	data  []modelEntry
	clock uint64
}

type modelEntry struct {
	valid bool
	tag   uint64
	lru   uint64
}

func newBTBModel(entries, ways int) *btbModel {
	return &btbModel{res: *btb.New(entries, ways).Result(), sets: entries / ways, data: make([]modelEntry, entries)}
}

func (b *btbModel) Observe(in isa.Inst) {
	p := phaseOf(&in)
	b.res.Insts[p]++
	if !in.Kind.IsBranch() || !in.Taken {
		return
	}
	b.res.Lookups[p]++
	b.clock++
	tag := uint64(in.PC) >> 2
	set := b.data[int(tag%uint64(b.sets))*b.res.Ways:][:b.res.Ways]
	for w := range set {
		if set[w].valid && set[w].tag == tag {
			set[w].lru = b.clock
			return
		}
	}
	b.res.Misses[p]++
	victim := &set[0]
	for w := range set {
		if !set[w].valid {
			victim = &set[w]
			break
		}
		if set[w].lru < victim.lru {
			victim = &set[w]
		}
	}
	*victim = modelEntry{valid: true, tag: tag, lru: b.clock}
}

// footprintModel is the Figure 3 pintool per instruction: each one credits
// the 32-byte chunk its first byte lies in.
type footprintModel struct{ chunks [2]map[uint64]int64 }

func (a *footprintModel) Observe(in isa.Inst) {
	p := phaseOf(&in)
	if a.chunks[p] == nil {
		a.chunks[p] = map[uint64]int64{}
	}
	a.chunks[p][uint64(in.PC)/32]++
}

// mixModel is the Figure 1 pintool per instruction.
type mixModel struct{ res analysis.MixResult }

func (a *mixModel) Observe(in isa.Inst) {
	p := phaseOf(&in)
	a.res.Insts[p]++
	a.res.Kinds[p][in.Kind]++
}

// bblModel is the Figure 4 pintool per instruction.
type bblModel struct {
	res              analysis.BBLResult
	curBlock, curRun [2]int64
}

func (a *bblModel) Observe(in isa.Inst) {
	p := phaseOf(&in)
	a.curBlock[p] += int64(in.Size)
	a.curRun[p] += int64(in.Size)
	if !in.Kind.IsBranch() {
		return
	}
	a.res.BlockSum[p] += float64(a.curBlock[p])
	a.res.BlockN[p]++
	a.curBlock[p] = 0
	if in.Taken {
		a.res.GapSum[p] += float64(a.curRun[p])
		a.res.GapN[p]++
		a.curRun[p] = 0
	}
}

// biasModel is the Figure 2 / Table I pintool per instruction.
type biasModel struct{ res analysis.BiasResult }

func (a *biasModel) Observe(in isa.Inst) {
	if !in.Kind.IsConditional() {
		return
	}
	if a.res.Sites == nil {
		a.res.Sites = map[isa.Addr]analysis.SiteBias{}
	}
	p := phaseOf(&in)
	s := a.res.Sites[in.PC]
	s.Exec[p]++
	a.res.Conds[p]++
	if in.Taken {
		s.Taken[p]++
	}
	a.res.Sites[in.PC] = s
	a.res.Dirs[p][in.BranchDirection()]++
}

// bpredModel is bpred.Sim's per-instruction Observe: every predictor
// accesses each conditional branch as it arrives.
type bpredModel struct {
	preds []bpred.Predictor
	res   []bpred.Result
}

func newBpredModel(names ...string) *bpredModel {
	m := &bpredModel{res: make([]bpred.Result, len(names))}
	for i, name := range names {
		p, err := bpred.NewByName(name)
		if err != nil {
			panic(err)
		}
		m.preds = append(m.preds, p)
		m.res[i].Name, m.res[i].CostBits = p.Name(), p.CostBits()
	}
	return m
}

func (s *bpredModel) Observe(in isa.Inst) {
	p := phaseOf(&in)
	for i := range s.res {
		s.res[i].Insts[p]++
	}
	if !in.Kind.IsConditional() {
		return
	}
	dir := in.BranchDirection()
	for i, pred := range s.preds {
		s.res[i].Branches[p]++
		if pred.Access(in.PC, in.Taken) != in.Taken {
			s.res[i].Miss[p][dir]++
		}
	}
}
