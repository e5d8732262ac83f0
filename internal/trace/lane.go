package trace

import "rebalance/internal/isa"

// Scan reduces a batch to its fetch runs (isa.Run has the run-end rules),
// appending to runs[:0] so the caller's buffer is reused across batches. It
// is the one place instructions become runs, and maximal ones; a Feed handed
// instruction batches calls it once per batch. The stream sources never do:
// they produce lanes.
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

// Expand is Scan's inverse and the one place an instruction batch is built
// from a lane: it writes the lane's instructions over buf, growing it only
// when it is too small, so the caller's buffer is reused across lanes. The
// sources call it once per lane, and only when an observer that is not a
// LaneConsumer is attached.
func Expand(l *isa.Lane, buf []isa.Inst) []isa.Inst {
	if cap(buf) < l.Insts {
		buf = make([]isa.Inst, l.Insts)
	}
	buf = buf[:l.Insts]
	serial := l.Phase == 0
	at := 0
	for i := range l.Runs {
		r := &l.Runs[i]
		out := buf[at : at+int(r.Insts)]
		sizes := l.Sizes[at : at+int(r.Insts)]
		pc := r.Start
		for j := range out {
			out[j] = isa.Inst{PC: pc, Size: sizes[j], Serial: serial}
			pc += isa.Addr(sizes[j])
		}
		if r.Kind != isa.KindOther {
			last := &out[len(out)-1]
			last.Kind, last.Taken, last.Target = r.Kind, r.Taken, r.Target
		}
		at += len(out)
	}
	return buf
}

// LaneConsumer is an observer that works on fetch runs: the predictor, BTB
// and I-cache simulators, the analysis collectors and the trace recorder.
// ConsumeLane is called once per batch, in program order. A source hands its
// lanes straight to the attached observers that implement it.
type LaneConsumer interface {
	ConsumeLane(l *isa.Lane)
}

// Feed fans a lane out to a group of lane consumers, so a coordinate's
// stream has one observer however many configurations ride it. Attached to
// a source it is a LaneConsumer and receives the source's lanes. It is also
// the one adapter from instructions to lanes, for the reference engine,
// tests and bench/: ObserveBatch scans the batch once, into one reused lane,
// for all its consumers (batches must not mix phases, the BatchObserver
// contract), and Observe is a one-element batch, so consumers see the same
// events however a stream is cut.
type Feed struct {
	consumers []LaneConsumer
	lane      isa.Lane
	one       [1]isa.Inst
}

// NewFeed returns a feed for the given consumers.
func NewFeed(consumers ...LaneConsumer) *Feed { return &Feed{consumers: consumers} }

// ConsumeLane implements LaneConsumer: a plain fan-out.
func (f *Feed) ConsumeLane(l *isa.Lane) {
	for _, c := range f.consumers {
		c.ConsumeLane(l)
	}
}

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
	f.lane.Sizes = f.lane.Sizes[:0]
	for i := range batch {
		f.lane.Sizes = append(f.lane.Sizes, batch[i].Size)
	}
	f.lane.Insts, f.lane.Phase = len(batch), 1
	if batch[0].Serial {
		f.lane.Phase = 0
	}
	f.ConsumeLane(&f.lane)
}
