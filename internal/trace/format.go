// Trace format v2 ("ispectr2"): a self-contained, replayable trace. Each
// core carries its full program image — instructions, entry/handler,
// InitMem windows, and basic-block metadata — next to its committed-event
// stream, so a decoded trace reconstructs an isa.Program-equivalent drive
// for the OoO core. Encoding is canonical (one byte sequence per
// trace value), which is what makes byte-identical replay-of-replay a
// checkable import invariant rather than a hope.
//
// Byte-level layout (all varints are unsigned LEB128 via encoding/binary
// unless marked zigzag, which is binary.PutVarint's signed encoding):
//
//	magic    8 bytes "ispectr2"
//	body:
//	  name       uvarint length + bytes (trace/workload name)
//	  ncores     uvarint (= program count = event-stream count)
//	  per core:
//	    program:
//	      name     uvarint length + bytes
//	      entry    uvarint
//	      handler  zigzag varint (may be -1: halt on exceptions)
//	      ninsts   uvarint
//	      per instruction:
//	        op, rd, rs1, rs2, size   5 raw bytes
//	        flags                    1 byte (bit0 priv, bit1 safe)
//	        imm                      zigzag varint
//	        target                   zigzag varint
//	      nblock   uvarint (basic-block metadata length; always ninsts for
//	               encoder output — materialised before labels are dropped)
//	      per block entry: uvarint
//	      nchunks  uvarint
//	      per InitMem chunk: addr uvarint, length uvarint, raw bytes
//	    events:
//	      nevents  uvarint
//	      per event: cycle delta uvarint (the accumulator resets per
//	                 core), pc uvarint, op byte, flags byte (bit0
//	                 flagWroteReg, bit1 flagFault), and if flagWroteReg:
//	                 reg byte + value uvarint
//	trailer  4 bytes little-endian CRC-32 (IEEE) over the body
//
// Program labels are NOT serialised: the encoder materialises BlockLen
// (which the builder derives from labels) first, so every decoded program
// carries explicit bb metadata and re-encoding it reproduces the input
// bytes exactly.
package trace

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"

	"invisispec/internal/core"
	"invisispec/internal/isa"
)

var magic2 = [8]byte{'i', 's', 'p', 'e', 'c', 't', 'r', '2'}

// Instruction flag bits (distinct from the per-event record flags).
const (
	instFlagPriv = 1 << 0
	instFlagSafe = 1 << 1
)

// ErrBadCRC reports a v2 stream whose body does not match its trailer.
var ErrBadCRC = errors.New("trace: checksum mismatch")

// Trace is a decoded (or to-be-encoded) replayable trace: one program and
// one committed-event stream per core.
type Trace struct {
	Name     string
	Programs []*isa.Program
	Events   [][]Event
}

// Validate checks the structural invariants encoding and import rely on:
// matching program/event core counts, and per-core clock monotonicity
// (commit cycles never run backwards — the delta encoding could not even
// represent that, so a violating in-memory trace must be rejected before
// it is mangled into a different trace on disk).
func (t *Trace) Validate() error {
	if len(t.Programs) == 0 {
		return errors.New("trace: zero cores")
	}
	if len(t.Events) != len(t.Programs) {
		return fmt.Errorf("trace: %d program(s) but %d event stream(s)", len(t.Programs), len(t.Events))
	}
	for c, evs := range t.Events {
		for i := 1; i < len(evs); i++ {
			if evs[i].Cycle < evs[i-1].Cycle {
				return fmt.Errorf("trace: core %d: clock runs backwards at event %d (%d -> %d)",
					c, i, evs[i-1].Cycle, evs[i].Cycle)
			}
		}
	}
	return nil
}

// Encode writes the canonical v2 byte sequence for t.
func Encode(w io.Writer, t *Trace) error {
	raw, err := EncodeBytes(t)
	if err != nil {
		return err
	}
	_, err = w.Write(raw)
	return err
}

// EncodeBytes returns the canonical v2 byte sequence for t. The encoding
// is a pure function of the trace value, so re-encoding a decoded trace
// reproduces the original bytes (the replay-of-replay import gate).
func EncodeBytes(t *Trace) ([]byte, error) {
	if err := t.Validate(); err != nil {
		return nil, err
	}
	var body bytes.Buffer
	putUvarint(&body, uint64(len(t.Name)))
	body.WriteString(t.Name)
	putUvarint(&body, uint64(len(t.Programs)))
	for c, p := range t.Programs {
		encodeProgram(&body, p)
		evs := t.Events[c]
		putUvarint(&body, uint64(len(evs)))
		last := uint64(0)
		for i, ev := range evs {
			delta := ev.Cycle - last
			if i == 0 {
				delta = ev.Cycle
			}
			last = ev.Cycle
			putUvarint(&body, delta)
			putUvarint(&body, uint64(ev.PC))
			body.WriteByte(byte(ev.Op))
			flags := byte(0)
			if ev.WroteReg {
				flags |= flagWroteReg
			}
			if ev.Fault {
				flags |= flagFault
			}
			body.WriteByte(flags)
			if ev.WroteReg {
				body.WriteByte(ev.Reg)
				putUvarint(&body, ev.RegValue)
			}
		}
	}
	out := make([]byte, 0, 8+body.Len()+4)
	out = append(out, magic2[:]...)
	out = append(out, body.Bytes()...)
	var crc [4]byte
	binary.LittleEndian.PutUint32(crc[:], crc32.ChecksumIEEE(body.Bytes()))
	return append(out, crc[:]...), nil
}

// encodeProgram serialises one program. BlockLen is always written: when
// the program carries none (hand-built), it is materialised from static
// control flow on a copy first, so decoded programs never depend on the
// dropped Labels map for basic-block identity.
func encodeProgram(w *bytes.Buffer, p *isa.Program) {
	if p.BlockLen == nil {
		p2 := *p
		p2.ComputeBB()
		p = &p2
	}
	putUvarint(w, uint64(len(p.Name)))
	w.WriteString(p.Name)
	putUvarint(w, uint64(p.Entry))
	putVarint(w, int64(p.Handler))
	putUvarint(w, uint64(len(p.Insts)))
	for _, in := range p.Insts {
		w.WriteByte(byte(in.Op))
		w.WriteByte(in.Rd)
		w.WriteByte(in.Rs1)
		w.WriteByte(in.Rs2)
		w.WriteByte(in.Size)
		flags := byte(0)
		if in.Priv {
			flags |= instFlagPriv
		}
		if in.Safe {
			flags |= instFlagSafe
		}
		w.WriteByte(flags)
		putVarint(w, in.Imm)
		putVarint(w, int64(in.Target))
	}
	putUvarint(w, uint64(len(p.BlockLen)))
	for _, bl := range p.BlockLen {
		putUvarint(w, uint64(bl))
	}
	putUvarint(w, uint64(len(p.InitMem)))
	for _, ch := range p.InitMem {
		putUvarint(w, ch.Addr)
		putUvarint(w, uint64(len(ch.Data)))
		w.Write(ch.Data)
	}
}

// Decode reads a v2 trace from r: CRC-verified, then programs and events.
// Any other magic, the retired version-1 one included, is ErrBadMagic.
func Decode(r io.Reader) (*Trace, error) {
	raw, err := io.ReadAll(r)
	if err != nil {
		return nil, err
	}
	return DecodeBytes(raw)
}

// DecodeBytes is Decode over an in-memory stream.
func DecodeBytes(raw []byte) (*Trace, error) {
	if len(raw) < 8 {
		return nil, ErrBadMagic
	}
	if !bytes.Equal(raw[:8], magic2[:]) {
		return nil, ErrBadMagic
	}
	if len(raw) < 8+4 {
		return nil, fmt.Errorf("trace: truncated trailer")
	}
	body := raw[8 : len(raw)-4]
	want := binary.LittleEndian.Uint32(raw[len(raw)-4:])
	if crc32.ChecksumIEEE(body) != want {
		return nil, ErrBadCRC
	}
	d := &decoder{r: bytes.NewReader(body)}
	t := &Trace{}
	t.Name = d.str("name")
	ncores := d.uv("core count")
	for c := uint64(0); c < ncores && d.err == nil; c++ {
		t.Programs = append(t.Programs, d.program())
		nev := d.uv("event count")
		evs := make([]Event, 0, nev)
		cycle := uint64(0)
		for i := uint64(0); i < nev && d.err == nil; i++ {
			cycle += d.uv("cycle delta")
			ev := Event{Cycle: cycle, PC: int(d.uv("pc"))}
			ev.Op = isa.Op(d.byte("op"))
			flags := d.byte("flags")
			ev.Fault = flags&flagFault != 0
			if flags&flagWroteReg != 0 {
				ev.WroteReg = true
				ev.Reg = d.byte("reg")
				ev.RegValue = d.uv("value")
			}
			evs = append(evs, ev)
		}
		t.Events = append(t.Events, evs)
	}
	if d.err != nil {
		return nil, d.err
	}
	if d.r.Len() != 0 {
		return nil, fmt.Errorf("trace: %d trailing byte(s) after last core", d.r.Len())
	}
	if err := t.Validate(); err != nil {
		return nil, err
	}
	return t, nil
}

// WriteFile encodes t to path.
func WriteFile(path string, t *Trace) error {
	raw, err := EncodeBytes(t)
	if err != nil {
		return err
	}
	return os.WriteFile(path, raw, 0o644)
}

// ReadFile decodes the trace at path.
func ReadFile(path string) (*Trace, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	return DecodeBytes(raw)
}

// FromCommit converts a live commit event to its trace record.
func FromCommit(ev core.CommitEvent) Event {
	out := Event{
		Cycle:    ev.Cycle,
		PC:       ev.PC,
		Op:       ev.Inst.Op,
		Fault:    ev.Fault,
		WroteReg: ev.WroteReg,
	}
	if ev.WroteReg {
		out.Reg = ev.Reg
		out.RegValue = ev.RegValue
	}
	return out
}

// RecordInterp runs p on the golden interpreter for at most maxSteps
// retired instructions and returns the committed stream as a single-core
// replayable trace, with the retirement index standing in for the cycle
// (the interpreter has no clock; Diff ignores cycles anyway). The second
// result reports whether the program halted within the budget — bench
// kernels loop forever by design, so a full-budget recording is the
// normal outcome for them, while attack recordings usually want halted.
func RecordInterp(name string, p *isa.Program, maxSteps uint64) (*Trace, bool) {
	it := isa.NewInterp(p)
	var events []Event
	for uint64(len(events)) < maxSteps && !it.Halted {
		pc := it.PC
		in := p.At(pc)
		faults := it.Faults
		it.Step()
		ev := Event{Cycle: uint64(len(events)), PC: pc, Op: in.Op}
		switch {
		case it.Faults > faults:
			ev.Fault = true
		case in.Op.HasDest():
			ev.WroteReg = true
			ev.Reg = in.Rd
			ev.RegValue = it.Regs[in.Rd]
		}
		events = append(events, ev)
	}
	return &Trace{Name: name, Programs: []*isa.Program{p}, Events: [][]Event{events}}, it.Halted
}

// decoder carries the error through a sequence of reads so call sites
// stay linear; the first failure sticks.
type decoder struct {
	r   *bytes.Reader
	err error
}

func (d *decoder) uv(what string) uint64 {
	if d.err != nil {
		return 0
	}
	v, err := binary.ReadUvarint(d.r)
	if err != nil {
		d.err = fmt.Errorf("trace: truncated %s: %w", what, err)
	}
	return v
}

func (d *decoder) sv(what string) int64 {
	if d.err != nil {
		return 0
	}
	v, err := binary.ReadVarint(d.r)
	if err != nil {
		d.err = fmt.Errorf("trace: truncated %s: %w", what, err)
	}
	return v
}

func (d *decoder) byte(what string) byte {
	if d.err != nil {
		return 0
	}
	b, err := d.r.ReadByte()
	if err != nil {
		d.err = fmt.Errorf("trace: truncated %s: %w", what, err)
	}
	return b
}

func (d *decoder) str(what string) string {
	n := d.uv(what + " length")
	if d.err != nil {
		return ""
	}
	if n > uint64(d.r.Len()) {
		d.err = fmt.Errorf("trace: truncated %s: length %d exceeds remaining %d", what, n, d.r.Len())
		return ""
	}
	buf := make([]byte, n)
	io.ReadFull(d.r, buf)
	return string(buf)
}

func (d *decoder) program() *isa.Program {
	p := &isa.Program{}
	p.Name = d.str("program name")
	p.Entry = int(d.uv("entry"))
	p.Handler = int(d.sv("handler"))
	ninsts := d.uv("instruction count")
	if d.err == nil && ninsts > uint64(d.r.Len()) {
		// Each instruction takes >= 8 bytes; a count past the remaining
		// body is corruption, not a huge program.
		d.err = fmt.Errorf("trace: instruction count %d exceeds remaining body", ninsts)
	}
	for i := uint64(0); i < ninsts && d.err == nil; i++ {
		in := isa.Inst{
			Op:   isa.Op(d.byte("op")),
			Rd:   d.byte("rd"),
			Rs1:  d.byte("rs1"),
			Rs2:  d.byte("rs2"),
			Size: d.byte("size"),
		}
		flags := d.byte("inst flags")
		in.Priv = flags&instFlagPriv != 0
		in.Safe = flags&instFlagSafe != 0
		in.Imm = d.sv("imm")
		in.Target = int(d.sv("target"))
		p.Insts = append(p.Insts, in)
	}
	nblock := d.uv("block metadata length")
	if d.err == nil && nblock > uint64(d.r.Len()) {
		d.err = fmt.Errorf("trace: block metadata length %d exceeds remaining body", nblock)
	}
	for i := uint64(0); i < nblock && d.err == nil; i++ {
		p.BlockLen = append(p.BlockLen, int(d.uv("block length")))
	}
	nchunks := d.uv("chunk count")
	for i := uint64(0); i < nchunks && d.err == nil; i++ {
		addr := d.uv("chunk addr")
		n := d.uv("chunk length")
		if d.err != nil {
			break
		}
		if n > uint64(d.r.Len()) {
			d.err = fmt.Errorf("trace: truncated chunk data: length %d exceeds remaining %d", n, d.r.Len())
			break
		}
		data := make([]byte, n)
		io.ReadFull(d.r, data)
		p.InitMem = append(p.InitMem, isa.InitChunk{Addr: addr, Data: data})
	}
	return p
}

func putUvarint(w *bytes.Buffer, v uint64) {
	var buf [binary.MaxVarintLen64]byte
	n := binary.PutUvarint(buf[:], v)
	w.Write(buf[:n])
}

func putVarint(w *bytes.Buffer, v int64) {
	var buf [binary.MaxVarintLen64]byte
	n := binary.PutVarint(buf[:], v)
	w.Write(buf[:n])
}
