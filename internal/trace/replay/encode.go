package replay

import (
	"encoding/binary"
	"fmt"

	"rebalance/internal/isa"
)

// The trr1 encoding of a stream — a Trace's resident form and, behind a
// header, its disk form. The format exploits the stream's structure
// instead of serializing isa.Inst structs verbatim: most instructions
// follow their predecessor sequentially (PC == previous NextPC), so their
// address is implicit, and branch targets cluster near their branch, so
// they delta-encode small. A generated stream costs roughly 2.2 bytes per
// instruction against the 32 of an isa.Inst.
//
// Layout:
//
//	magic "trr1" | uvarint count | count x instruction
//
// Each instruction is:
//
//	flags byte:
//	  bits 0-2  Kind (isa.Kind, 8 values)
//	  bit  3    Taken
//	  bit  4    Serial
//	  bit  5    sequential PC (PC == previous instruction's NextPC)
//	  bits 6-7  must be zero
//	size byte   (must be non-zero)
//	uvarint PC                     — only when bit 5 is clear
//	zigzag-varint (Target - PC)    — only for branch kinds
//
// KindOther instructions never encode Taken or a Target (the executor
// always emits them with Taken=false, Target=0), and the decoder enforces
// that as a validity condition. Decoding is strict across the board —
// unknown kind bits, reserved flag bits, a zero size, short data, or
// leftover bytes all fail — so a payload from an incompatible build (or a
// corrupted file that slipped past the checksum) degrades to a cache miss
// rather than replaying a wrong stream.
const (
	encMagic = "trr1"

	flagTaken  = 1 << 3
	flagSerial = 1 << 4
	flagSeqPC  = 1 << 5
	kindMask   = 0x07
)

// reader is a position in a trr1 body: the one interpreter of instruction
// records, behind both Decode's validation and Deliver's lanes.
type reader struct {
	body []byte   // the records not yet read
	i, n int      // the next instruction's index, and the stream's count
	next isa.Addr // NextPC of instruction i-1
}

// fill decodes records into the lane, replacing its contents: it stops at
// limit instructions, when the stream's count is reached, or before the
// first record whose Serial flag differs from the lane's first — a lane
// never mixes phases. A record extends the open run when it starts where
// that run ends and opens one otherwise, and a branch record ends it. Every
// record passes the format's validity rules before it is returned.
func (r *reader) fill(l *isa.Lane, limit int) error {
	body, next := r.body, r.next
	limit = min(limit, r.n-r.i)
	if cap(l.Sizes) < limit {
		l.Sizes = make([]uint8, limit)
	}
	// sizes[k] is the lane's instruction k's.
	runs, sizes := l.Runs[:0], l.Sizes[:limit]
	var phase byte // the lane's Serial flag, taken from its first record
	open := false  // the last run has not met its branch
	k, p := 0, 0
	for k < limit {
		if len(body)-p < 2 {
			return fmt.Errorf("replay: truncated at instruction %d", r.i+k)
		}
		flags, size := body[p], body[p+1]
		if k == 0 {
			phase = flags & flagSerial
		} else if flags&flagSerial != phase {
			break
		}
		p += 2
		if flags&^(kindMask|flagTaken|flagSerial|flagSeqPC) != 0 {
			return fmt.Errorf("replay: reserved flag bits set at instruction %d", r.i+k)
		}
		kind := isa.Kind(flags & kindMask)
		if int(kind) >= isa.NumKinds {
			return fmt.Errorf("replay: invalid kind %d at instruction %d", kind, r.i+k)
		}
		if size == 0 {
			return fmt.Errorf("replay: zero size at instruction %d", r.i+k)
		}
		pc := next
		if flags&flagSeqPC == 0 {
			v, w := binary.Uvarint(body[p:])
			if w <= 0 {
				return fmt.Errorf("replay: bad PC at instruction %d", r.i+k)
			}
			p += w
			pc = isa.Addr(v)
		} else if r.i+k == 0 {
			return fmt.Errorf("replay: first instruction marked sequential")
		}
		// An open run ends at next: its last instruction is no branch.
		if open && pc == next {
			run := &runs[len(runs)-1]
			run.PC, run.Bytes, run.Insts = pc, run.Bytes+uint32(size), run.Insts+1
		} else {
			runs = append(runs, isa.Run{Start: pc, PC: pc, Bytes: uint32(size), Insts: 1})
		}
		sizes[k] = size
		next = pc + isa.Addr(size)
		open = !kind.IsBranch()
		if !open {
			delta, w := binary.Varint(body[p:])
			if w <= 0 {
				return fmt.Errorf("replay: bad target at instruction %d", r.i+k)
			}
			p += w
			run := &runs[len(runs)-1]
			run.Kind, run.Taken, run.Target = kind, flags&flagTaken != 0, isa.Addr(int64(pc)+delta)
			if run.Taken {
				next = run.Target
			}
		} else if flags&flagTaken != 0 {
			return fmt.Errorf("replay: non-branch marked taken at instruction %d", r.i+k)
		}
		k++
		// Most records are what follows a block's entry: sequential
		// non-branches of the same phase — one flags value, two bytes, no
		// varint, and no rule left to check but the size. They extend the
		// open run, or open one at next after a branch. (Never the stream's
		// first record: that one came through the rules above.)
		plain, from := flagSeqPC|phase, k
		var bytes uint32
		for ; k < limit && len(body)-p >= 2 && body[p] == plain && body[p+1] != 0; k++ {
			sizes[k] = body[p+1]
			bytes += uint32(body[p+1])
			p += 2
		}
		if k > from {
			if !open {
				runs = append(runs, isa.Run{Start: next})
				open = true
			}
			run := &runs[len(runs)-1]
			next += isa.Addr(bytes)
			run.PC, run.Bytes, run.Insts = next-isa.Addr(sizes[k-1]), run.Bytes+bytes, run.Insts+uint32(k-from)
		}
	}
	l.Runs, l.Sizes, l.Insts, l.Phase = runs, sizes[:k], k, 1
	if phase != 0 {
		l.Phase = 0
	}
	r.body, r.next, r.i = body[p:], next, r.i+k
	return nil
}

// Encode renders the trace as a trr1 payload: the header and one copy of
// the resident records.
func Encode(t *Trace) []byte {
	buf := make([]byte, 0, len(encMagic)+binary.MaxVarintLen64+len(t.body))
	buf = append(buf, encMagic...)
	buf = binary.AppendUvarint(buf, uint64(t.n))
	return append(buf, t.body...)
}

// Decode validates a trr1 payload and returns the Trace over it; the Trace
// keeps data, so the caller must not modify it afterwards. Any structural
// violation — wrong magic, truncation, reserved bits, invalid kind, zero
// size, non-branch carrying branch state, or trailing bytes — is an error:
// the whole payload is walked once, by the reader Deliver uses, before a
// Trace exists to replay.
func Decode(data []byte) (*Trace, error) {
	if len(data) < len(encMagic) || string(data[:len(encMagic)]) != encMagic {
		return nil, fmt.Errorf("replay: bad trace magic")
	}
	body := data[len(encMagic):]
	count, w := binary.Uvarint(body)
	if w <= 0 {
		return nil, fmt.Errorf("replay: bad instruction count")
	}
	body = body[w:]
	// Every instruction costs at least two bytes, so a count the payload
	// cannot hold is rejected before anything is sized by it.
	if count > uint64(len(body))/2 {
		return nil, fmt.Errorf("replay: instruction count %d exceeds payload", count)
	}
	t := &Trace{n: int(count), body: body}
	var scratch isa.Lane
	r := t.reader()
	for r.i < r.n {
		if err := r.fill(&scratch, 256); err != nil {
			return nil, err
		}
	}
	if len(r.body) != 0 {
		return nil, fmt.Errorf("replay: %d trailing bytes after %d instructions", len(r.body), count)
	}
	return t, nil
}
