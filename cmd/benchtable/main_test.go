package main

// The journal test uses the exec-helper pattern (like cmd/simserver's): the
// test binary re-execs itself into main with a benchtable command line, so
// flags, exit codes and files behave exactly as on the command line.

import (
	"bufio"
	"bytes"
	"encoding/json"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"

	"invisispec/internal/campaign"
	"invisispec/internal/config"
	"invisispec/internal/engine"
	"invisispec/internal/runner"
)

// TestHelperBenchtable is not a test: it is the benchtable process body.
func TestHelperBenchtable(t *testing.T) {
	if os.Getenv("BENCHTABLE_TEST_MAIN") == "" {
		t.Skip("benchtable-process helper; runs only via re-exec")
	}
	os.Args = append([]string{"benchtable"}, strings.Split(os.Getenv("BENCHTABLE_TEST_ARGS"), "\x1f")...)
	main()
	os.Exit(0)
}

// benchtable runs one re-exec'd benchtable and fails the test on a non-zero
// exit.
func benchtable(t *testing.T, args ...string) {
	t.Helper()
	cmd := exec.Command(os.Args[0], "-test.run=TestHelperBenchtable$")
	cmd.Env = append(os.Environ(),
		"BENCHTABLE_TEST_MAIN=1",
		"BENCHTABLE_TEST_ARGS="+strings.Join(args, "\x1f"))
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	if err := cmd.Run(); err != nil {
		t.Fatalf("benchtable %s: %v\n%s", strings.Join(args, " "), err, stderr.Bytes())
	}
}

// TestCompareKernelsLeavesJournalAlone: the stepped verification pass of
// -comparekernels must never truncate, re-head or append to the fast pass's
// -journal. The journal then holds exactly the fast cells under the fast
// campaign's header, and -resume replays it, running nothing, to an
// artifact cmp-identical to the first run's.
func TestCompareKernelsLeavesJournalAlone(t *testing.T) {
	dir := t.TempDir()
	journal := filepath.Join(dir, "fig4.jsonl")
	first := filepath.Join(dir, "BENCH_first.json")
	resumed := filepath.Join(dir, "BENCH_resumed.json")
	common := []string{"-fig", "4", "-names", "sjeng", "-defenses", "Base,IS-Sp",
		"-warmup", "500", "-measure", "2000", "-jobs", "2", "-quiet",
		"-benchhost=false", "-benchname", "journal", "-journal", journal}

	benchtable(t, append(common, "-comparekernels", "-benchjson", first)...)
	before, err := os.ReadFile(journal)
	if err != nil {
		t.Fatal(err)
	}

	jobs := runner.Matrix([]string{"sjeng"}, false, []config.Consistency{config.TSO, config.RC},
		[]config.Defense{config.Base, config.ISSpectre}, nil, 500, 2000)
	kernelOf := map[string]engine.Kernel{}
	for _, j := range jobs {
		for _, k := range []engine.Kernel{engine.KernelFast, engine.KernelStepped} {
			key, err := campaign.Key(campaign.SpecForJob(j, k))
			if err != nil {
				t.Fatal(err)
			}
			kernelOf[key] = k
		}
	}
	var header string
	cells := 0
	sc := bufio.NewScanner(bytes.NewReader(before))
	for line := 0; sc.Scan(); line++ {
		var rec struct{ Campaign, Key string }
		if err := json.Unmarshal(sc.Bytes(), &rec); err != nil {
			t.Fatalf("journal line %d: %v", line, err)
		}
		if line == 0 {
			header = rec.Campaign
			continue
		}
		k, ok := kernelOf[rec.Key]
		if !ok || k != engine.KernelFast {
			t.Errorf("journal line %d holds a %v-kernel cell (key %s)", line, k, rec.Key)
		}
		cells++
	}
	if header != "benchtable-fig4" || cells != len(jobs) {
		t.Fatalf("journal header %q with %d cell(s), want benchtable-fig4 with %d fast cells",
			header, cells, len(jobs))
	}

	benchtable(t, append(common, "-resume", "-benchjson", resumed)...)
	after, err := os.ReadFile(journal)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(before, after) {
		t.Error("resume appended to a complete journal: it re-ran cells")
	}
	a, err := os.ReadFile(first)
	if err != nil {
		t.Fatal(err)
	}
	b, err := os.ReadFile(resumed)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a, b) {
		t.Fatalf("resumed artifact differs from the -comparekernels run's:\n--- first ---\n%s\n--- resumed ---\n%s", a, b)
	}
}
