// Package trace provides the ispectr2 binary format for committed-
// instruction streams (see internal/core.CommitEvent) and the programs that
// produced them, plus a differ. Recorded traces serve three purposes:
// debugging (inspect exactly what retired and when), regression pinning (a
// golden trace diff catches any architectural behaviour change), and
// replay (an imported trace joins every matrix as a workload). The format
// itself is specified in format.go.
package trace

import (
	"errors"
	"fmt"

	"invisispec/internal/isa"
)

// Flag bits per event record.
const (
	flagWroteReg = 1 << 0
	flagFault    = 1 << 1
)

// Event is one decoded record.
type Event struct {
	Cycle    uint64
	PC       int
	Op       isa.Op
	WroteReg bool
	Reg      uint8
	RegValue uint64
	Fault    bool
}

// ErrBadMagic reports a stream that does not start with the ispectr2 magic,
// including streams in the retired event-only version-1 format.
var ErrBadMagic = errors.New("trace: bad magic")

// Diff compares two traces ARCHITECTURALLY (pc, op, register writes —
// cycles are timing, not architecture, and are ignored). It returns the
// index of the first divergence and a description, or -1 and "".
func Diff(a, b []Event) (int, string) {
	n := len(a)
	if len(b) < n {
		n = len(b)
	}
	for i := 0; i < n; i++ {
		x, y := a[i], b[i]
		switch {
		case x.PC != y.PC:
			return i, fmt.Sprintf("pc %d vs %d", x.PC, y.PC)
		case x.Op != y.Op:
			return i, fmt.Sprintf("op %v vs %v", x.Op, y.Op)
		case x.Fault != y.Fault:
			return i, fmt.Sprintf("fault %v vs %v", x.Fault, y.Fault)
		case x.WroteReg != y.WroteReg:
			return i, fmt.Sprintf("wrote-reg %v vs %v", x.WroteReg, y.WroteReg)
		case x.WroteReg && (x.Reg != y.Reg || x.RegValue != y.RegValue):
			// OpCycle values are timing-defined, not architectural.
			if x.Op == isa.OpCycle {
				continue
			}
			return i, fmt.Sprintf("r%d=%#x vs r%d=%#x", x.Reg, x.RegValue, y.Reg, y.RegValue)
		}
	}
	if len(a) != len(b) {
		return n, fmt.Sprintf("length %d vs %d", len(a), len(b))
	}
	return -1, ""
}
