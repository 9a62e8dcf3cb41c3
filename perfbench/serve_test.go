package main

import (
	"math"
	"testing"
	"time"
)

func TestSliceRatesIgnoresOneStall(t *testing.T) {
	// Three seconds at 1000 jobs/s, each job one cell of one instruction,
	// except that the second second stalls for 0.8 s and completes only
	// 200 jobs.
	key := [32]byte{1}
	out := &served{wall: 3 * time.Second, instr: map[[32]byte]float64{key: 1}}
	add := func(from, to time.Duration, n int) {
		for i := 1; i <= n; i++ {
			out.timings = append(out.timings, jobTiming{at: from + (to-from)*time.Duration(i)/time.Duration(n), key: key, cells: 1})
		}
	}
	add(0, time.Second, 1000)
	add(time.Second, 2*time.Second, 200)
	add(2*time.Second, 3*time.Second, 1000)
	// Listed out of completion order on purpose.
	out.timings[0], out.timings[len(out.timings)-1] = out.timings[len(out.timings)-1], out.timings[0]
	jobs, cells, instr, n := sliceRates(out)
	if n != 3 {
		t.Fatalf("%d slices, want 3", n)
	}
	if math.Abs(jobs-1000) > 200 || jobs != instr || jobs != cells {
		t.Fatalf("median slice rates %v jobs/s, %v cells/s, %v instr/s; want about 1000 and equal", jobs, cells, instr)
	}
	whole := float64(len(out.timings)) / out.wall.Seconds()
	if whole > 800 {
		t.Fatalf("test data: whole-window rate %v should show the stall", whole)
	}
}

func TestWindowSlicesHoldEnoughJobs(t *testing.T) {
	out := &served{wall: 10 * time.Second}
	for i := 0; i < 3*sliceJobs+1; i++ {
		out.timings = append(out.timings, jobTiming{at: time.Duration(i) * time.Millisecond})
	}
	slices := windowSlices(out)
	if len(slices) != 3 {
		t.Fatalf("%d slices of %d jobs over 10 s, want 3", len(slices), len(out.timings))
	}
	for i, s := range slices {
		if len(s) < sliceJobs {
			t.Fatalf("slice %d holds %d jobs, want at least %d", i, len(s), sliceJobs)
		}
	}
}

func TestSliceLatencyIgnoresOneSlowSlice(t *testing.T) {
	// Three slices of 200 jobs each; the jobs of the middle one are ten
	// times slower.
	out := &served{wall: 3 * time.Second}
	for s := 0; s < 3; s++ {
		slow := time.Duration(1)
		if s == 1 {
			slow = 10
		}
		for i := 1; i <= 200; i++ {
			out.timings = append(out.timings, jobTiming{
				at:    time.Duration(s)*time.Second + time.Duration(i)*time.Millisecond,
				total: slow * time.Duration(i) * 5 * time.Microsecond,
			})
		}
	}
	total := func(t jobTiming) float64 { return msOf(t.total) }
	p50, p90, err := sliceLatency(out, "job_ms", total)
	if err != nil {
		t.Fatal(err)
	}
	if p50 != 0.5 || p90 != 0.9 {
		t.Fatalf("median slice p50 %v ms, p90 %v ms; want 0.5 and 0.9", p50, p90)
	}
	out.timings = out.timings[:50]
	if _, _, err := sliceLatency(out, "job_ms", total); err == nil {
		t.Fatal("50 jobs have too few beyond p90, want an error")
	}
}
