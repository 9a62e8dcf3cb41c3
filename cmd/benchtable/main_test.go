package main

// The checkpoint test uses the exec-helper pattern (like cmd/simserver's): the
// test binary re-execs itself into main with a benchtable command line, so
// flags, exit codes and files behave exactly as on the command line.

import (
	"bytes"
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
// -comparekernels must never read or write the fast pass's -journal store.
// The store then holds exactly the fast cells' keys, and -resume replays
// it, writing nothing, to an artifact cmp-identical to the first run's.
func TestCompareKernelsLeavesJournalAlone(t *testing.T) {
	dir := t.TempDir()
	journal := filepath.Join(dir, "fig4")
	first := filepath.Join(dir, "BENCH_first.json")
	resumed := filepath.Join(dir, "BENCH_resumed.json")
	common := []string{"-fig", "4", "-names", "sjeng", "-defenses", "Base,IS-Sp",
		"-warmup", "500", "-measure", "2000", "-jobs", "2", "-quiet",
		"-benchhost=false", "-benchname", "journal", "-journal", journal}

	benchtable(t, append(common, "-comparekernels", "-benchjson", first)...)
	before := storeFiles(t, journal)

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
	cells := 0
	for name := range before {
		key, ok := strings.CutSuffix(name, ".cell")
		if !ok {
			t.Errorf("store holds %s, which is not a cell entry", name)
			continue
		}
		if k, ok := kernelOf[key]; !ok || k != engine.KernelFast {
			t.Errorf("store holds a %v-kernel cell (key %s)", k, key)
		}
		cells++
	}
	if cells != len(jobs) {
		t.Fatalf("store holds %d cell(s), want the %d fast cells", cells, len(jobs))
	}

	benchtable(t, append(common, "-resume", "-benchjson", resumed)...)
	after := storeFiles(t, journal)
	if len(after) != len(before) {
		t.Errorf("resume changed the store from %d to %d files", len(before), len(after))
	}
	for name, fi := range before {
		if !os.SameFile(fi, after[name]) {
			t.Errorf("resume rewrote %s: it re-ran cells", name)
		}
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

// storeFiles maps every file in a checkpoint store directory to its
// FileInfo; a rewritten entry is a new file, since stores write by rename.
func storeFiles(t *testing.T, dir string) map[string]os.FileInfo {
	t.Helper()
	names, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	files := map[string]os.FileInfo{}
	for _, de := range names {
		fi, err := de.Info()
		if err != nil {
			t.Fatal(err)
		}
		files[de.Name()] = fi
	}
	return files
}
