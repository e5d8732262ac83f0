package trace

import "rebalance/internal/isa"

// Scan reduces a batch to its fetch runs (isa.Run has the run-end rules),
// appending to runs[:0] so the caller's buffer is reused across batches. It
// is the one place instructions become runs: every isa.Inst is read here
// once, and the lane consumers behind a Feed then work per run.
func Scan(batch []isa.Inst, runs []isa.Run) []isa.Run {
	runs = runs[:0]
	for i := 0; i < len(batch); {
		start := batch[i].PC
		next, j := start, i
		for j < len(batch) && batch[j].PC == next {
			in := &batch[j]
			next += isa.Addr(in.Size)
			j++
			if in.Kind != isa.KindOther {
				break
			}
		}
		last := &batch[j-1]
		r := isa.Run{Start: start, PC: last.PC, Bytes: uint32(next - start), Insts: uint32(j - i)}
		if last.Kind != isa.KindOther {
			r.Kind, r.Taken, r.Target = last.Kind, last.Taken, last.Target
		}
		runs = append(runs, r)
		i = j
	}
	return runs
}

// LaneConsumer is an observer that works on fetch runs: the predictor, BTB
// and I-cache simulators and the branch-mix, bias and basic-block collectors.
// ConsumeLane is called once per batch, in program order.
type LaneConsumer interface {
	ConsumeLane(l *isa.Lane)
}

// Feed is the one adapter from the instruction stream to lane consumers: it
// scans each batch once, into one reused buffer, and hands the lane to every
// consumer, so a coordinate's batch is scanned once however many
// configurations ride it. Batches must not mix phases (the BatchObserver
// contract). The per-instruction path is a one-element batch, so consumers
// see the same events however a stream is cut.
type Feed struct {
	consumers []LaneConsumer
	lane      isa.Lane
	one       [1]isa.Inst
}

// NewFeed returns a feed that scans for the given consumers.
func NewFeed(consumers ...LaneConsumer) *Feed { return &Feed{consumers: consumers} }

// Observe implements Observer.
func (f *Feed) Observe(in isa.Inst) {
	f.one[0] = in
	f.ObserveBatch(f.one[:])
}

// ObserveBatch implements BatchObserver.
func (f *Feed) ObserveBatch(batch []isa.Inst) {
	if len(batch) == 0 {
		return
	}
	f.lane.Runs = Scan(batch, f.lane.Runs)
	f.lane.Insts, f.lane.Phase = len(batch), 1
	if batch[0].Serial {
		f.lane.Phase = 0
	}
	for _, c := range f.consumers {
		c.ConsumeLane(&f.lane)
	}
}

// Close releases the goroutines of consumers that own any (a parallelized
// bpred.Sim); the feed must not observe afterwards.
func (f *Feed) Close() {
	for _, c := range f.consumers {
		if cl, ok := c.(interface{ Close() }); ok {
			cl.Close()
		}
	}
}
