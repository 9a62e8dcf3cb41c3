package trace_test

import (
	"encoding/binary"
	"errors"
	"hash/crc32"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"

	"invisispec/internal/config"
	"invisispec/internal/core"
	"invisispec/internal/harness"
	"invisispec/internal/isa"
	"invisispec/internal/trace"
	"invisispec/internal/workload"
)

// nopProgram is the smallest replayable program: the event streams below
// are format inputs, not architectural claims, so any program will do.
var nopProgram = &isa.Program{Name: "nop", Insts: []isa.Inst{{Op: isa.OpNop}}}

// roundTrip encodes commit events as a single-core trace and decodes them
// back through the one codec.
func roundTrip(evs []core.CommitEvent) ([]trace.Event, error) {
	in := &trace.Trace{Name: "roundtrip", Programs: []*isa.Program{nopProgram}, Events: [][]trace.Event{nil}}
	for _, ev := range evs {
		in.Events[0] = append(in.Events[0], trace.FromCommit(ev))
	}
	raw, err := trace.EncodeBytes(in)
	if err != nil {
		return nil, err
	}
	out, err := trace.DecodeBytes(raw)
	if err != nil {
		return nil, err
	}
	return out.Events[0], nil
}

// sameEvent reports whether a decoded record carries the commit's fields.
func sameEvent(got trace.Event, ev core.CommitEvent) bool {
	return got.Cycle == ev.Cycle && got.PC == ev.PC && got.Op == ev.Inst.Op &&
		got.Fault == ev.Fault && got.WroteReg == ev.WroteReg &&
		got.Reg == ev.Reg && got.RegValue == ev.RegValue
}

func TestRoundTrip(t *testing.T) {
	in := []core.CommitEvent{
		{Cycle: 10, Seq: 0, PC: 0, Inst: isa.Inst{Op: isa.OpLui, Rd: 3}, WroteReg: true, Reg: 3, RegValue: 0xDEADBEEF},
		{Cycle: 10, Seq: 1, PC: 1, Inst: isa.Inst{Op: isa.OpNop}},
		{Cycle: 12, Seq: 2, PC: 2, Inst: isa.Inst{Op: isa.OpLoad}, Fault: true},
		{Cycle: 99, Seq: 3, PC: 7, Inst: isa.Inst{Op: isa.OpAdd, Rd: 1}, WroteReg: true, Reg: 1, RegValue: ^uint64(0)},
	}
	out, err := roundTrip(in)
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != len(in) {
		t.Fatalf("decoded %d events, want %d", len(out), len(in))
	}
	for i, ev := range in {
		if !sameEvent(out[i], ev) {
			t.Fatalf("event %d: %+v != %+v", i, out[i], ev)
		}
	}
}

// Anything but the ispectr2 magic is rejected before parsing.
func TestBadMagic(t *testing.T) {
	if _, err := trace.DecodeBytes([]byte("not a trace!")); !errors.Is(err, trace.ErrBadMagic) {
		t.Fatalf("err = %v, want ErrBadMagic", err)
	}
}

// The retired version-1 event-only format is no longer read: a stream
// carrying its magic fails the magic check like any foreign input.
func TestV1BackwardCompatRead(t *testing.T) {
	tr, _ := trace.RecordInterp("magic", workload.MustSPEC("hmmer"), 50)
	v1, err := trace.EncodeBytes(tr)
	if err != nil {
		t.Fatal(err)
	}
	v1[7] = '1' // the version-1 magic
	if _, err := trace.DecodeBytes(v1); !errors.Is(err, trace.ErrBadMagic) {
		t.Fatalf("err = %v, want ErrBadMagic", err)
	}
}

// A stream cut mid-record must fail in the record parser, not decode to a
// shorter trace. The CRC is recomputed over the cut body so the checksum
// cannot be what catches it.
func TestTruncatedStream(t *testing.T) {
	tr := &trace.Trace{Name: "cut", Programs: []*isa.Program{nopProgram}, Events: [][]trace.Event{{
		trace.FromCommit(core.CommitEvent{Cycle: 5, PC: 3, Inst: isa.Inst{Op: isa.OpAdd, Rd: 1}, WroteReg: true, Reg: 1, RegValue: 1 << 40}),
	}}}
	raw, err := trace.EncodeBytes(tr)
	if err != nil {
		t.Fatal(err)
	}
	body := raw[8 : len(raw)-4-2] // drop the value varint's last two bytes
	cut := append(append([]byte(nil), raw[:8]...), body...)
	cut = binary.LittleEndian.AppendUint32(cut, crc32.ChecksumIEEE(body))
	if _, err := trace.DecodeBytes(cut); err == nil || !strings.Contains(err.Error(), "truncated") {
		t.Fatalf("truncated record: err = %v, want a truncation error", err)
	}
}

func TestDiff(t *testing.T) {
	a := []trace.Event{{PC: 1, Op: isa.OpAdd}, {PC: 2, Op: isa.OpNop}}
	if i, _ := trace.Diff(a, a); i != -1 {
		t.Fatalf("identical traces diff at %d", i)
	}
	b := []trace.Event{{PC: 1, Op: isa.OpAdd}, {PC: 3, Op: isa.OpNop}}
	if i, why := trace.Diff(a, b); i != 1 || why == "" {
		t.Fatalf("diff = %d %q", i, why)
	}
	c := a[:1]
	if i, _ := trace.Diff(a, c); i != 1 {
		t.Fatal("length divergence missed")
	}
	// Cycle-count differences are not architectural.
	d := []trace.Event{{PC: 1, Op: isa.OpAdd, Cycle: 500}, {PC: 2, Op: isa.OpNop, Cycle: 900}}
	if i, _ := trace.Diff(a, d); i != -1 {
		t.Fatal("cycle difference treated as divergence")
	}
	// OpCycle register values are timing-defined.
	e := []trace.Event{{PC: 1, Op: isa.OpCycle, WroteReg: true, Reg: 2, RegValue: 7}}
	f := []trace.Event{{PC: 1, Op: isa.OpCycle, WroteReg: true, Reg: 2, RegValue: 9}}
	if i, _ := trace.Diff(e, f); i != -1 {
		t.Fatal("OpCycle value difference treated as divergence")
	}
}

// Every defense must commit the same architectural stream for the same
// program: record every registered scheme and diff each against Base.
func TestAllDefensesCommitIdenticalStreams(t *testing.T) {
	prog := workload.MustSPEC("hmmer")
	const n = 3000
	record := func(d config.Defense) []trace.Event {
		r := config.Run{Machine: config.Default(1), Defense: d, Consistency: config.TSO}
		tr, err := harness.Record(r, "hmmer", []*isa.Program{prog}, n)
		if err != nil {
			t.Fatal(err)
		}
		return tr.Events[0]
	}
	ref := record(config.Base)
	if len(ref) != n {
		t.Fatalf("reference trace has %d of %d events", len(ref), n)
	}
	for _, d := range config.AllDefenses()[1:] {
		if i, why := trace.Diff(ref, record(d)); i != -1 {
			t.Errorf("%v diverges from Base at commit %d: %s", d, i, why)
		}
	}
}

// Random monotone event streams round-trip through EncodeBytes/DecodeBytes.
func TestRoundTripQuick(t *testing.T) {
	f := func(cycles []uint16, pcs []uint16, ops []uint8, vals []uint64) bool {
		n := len(cycles)
		for _, s := range []int{len(pcs), len(ops), len(vals)} {
			if s < n {
				n = s
			}
		}
		var evs []core.CommitEvent
		cyc := uint64(0)
		for i := 0; i < n; i++ {
			cyc += uint64(cycles[i]) // monotone, as real commits are
			op := isa.Op(ops[i] % 30)
			ev := core.CommitEvent{Cycle: cyc, PC: int(pcs[i]), Inst: isa.Inst{Op: op}}
			switch {
			case op.HasDest():
				ev.WroteReg = true
				ev.Reg = uint8(vals[i] % 32)
				ev.RegValue = vals[i]
			case vals[i]%7 == 0:
				ev.Fault = true
			}
			evs = append(evs, ev)
		}
		out, err := roundTrip(evs)
		if err != nil || len(out) != len(evs) {
			return false
		}
		for i, ev := range evs {
			if !sameEvent(out[i], ev) {
				return false
			}
		}
		return true
	}
	cfg := &quick.Config{MaxCount: 200, Rand: rand.New(rand.NewSource(9))}
	if err := quick.Check(f, cfg); err != nil {
		t.Fatal(err)
	}
}
