package main

// The graceful-shutdown test uses the exec-helper pattern (like the campaign
// isolation tests): the test binary re-execs itself into realMain, the
// parent submits a job over HTTP, sends SIGTERM mid-job, and asserts the
// drain semantics — clean exit, persisted cache index, and a warm restart
// that re-runs only the refused cells.

import (
	"bufio"
	"bytes"
	"encoding/json"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"syscall"
	"testing"
	"time"

	"invisispec/internal/campaign"
	"invisispec/internal/config"
	"invisispec/internal/engine"
	"invisispec/internal/memo"
	"invisispec/internal/runner"
)

// TestHelperServer is not a test: it is the server process body.
func TestHelperServer(t *testing.T) {
	if os.Getenv("SIMSERVER_TEST_MAIN") == "" {
		t.Skip("server-process helper; runs only via re-exec")
	}
	args := strings.Split(os.Getenv("SIMSERVER_TEST_ARGS"), "\x1f")
	os.Exit(realMain(args, os.Stdout, os.Stderr))
}

// server wraps one re-exec'd simserver process.
type server struct {
	cmd  *exec.Cmd
	addr string
	errb *bytes.Buffer
}

func startServer(t *testing.T, cacheDir string) *server {
	t.Helper()
	args := []string{"-addr", "127.0.0.1:0", "-cache", cacheDir, "-workers", "1"}
	cmd := exec.Command(os.Args[0], "-test.run=TestHelperServer$")
	cmd.Env = append(os.Environ(),
		"SIMSERVER_TEST_MAIN=1",
		"SIMSERVER_TEST_ARGS="+strings.Join(args, "\x1f"))
	out, err := cmd.StdoutPipe()
	if err != nil {
		t.Fatal(err)
	}
	errb := &bytes.Buffer{}
	cmd.Stderr = errb
	if err := cmd.Start(); err != nil {
		t.Fatalf("starting server process: %v", err)
	}
	t.Cleanup(func() {
		if cmd.ProcessState == nil {
			cmd.Process.Kill()
			cmd.Wait()
		}
	})

	// The first stdout line announces the bound address.
	sc := bufio.NewScanner(out)
	if !sc.Scan() {
		cmd.Wait()
		t.Fatalf("no startup line; stderr:\n%s", errb)
	}
	line := sc.Text()
	const marker = "listening on "
	i := strings.Index(line, marker)
	if i < 0 {
		t.Fatalf("unexpected startup line %q", line)
	}
	go func() { // keep draining stdout so the child never blocks on it
		for sc.Scan() {
		}
	}()
	return &server{cmd: cmd, addr: line[i+len(marker):], errb: errb}
}

func (s *server) url(path string) string { return "http://" + s.addr + path }

// slowSweep is a 3-cell matrix with a budget big enough that SIGTERM lands
// mid-job (workers=1 runs the cells sequentially).
const slowSweep = `{"type":"sweep","name":"t","workloads":["bzip2"],` +
	`"defenses":["Base","Fe-Sp","IS-Sp"],"consistency":["TSO"],` +
	`"warmup":1000,"measure":100000}`

type status struct {
	ID       string `json:"id"`
	State    string `json:"state"`
	Progress struct {
		Completed int `json:"completed"`
		Total     int `json:"total"`
	} `json:"progress"`
	Cache struct {
		Hits   int `json:"hits"`
		Misses int `json:"misses"`
	} `json:"cache"`
	Error string `json:"error"`
}

func (s *server) submit(t *testing.T, body string) status {
	t.Helper()
	resp, err := http.Post(s.url("/api/v1/jobs"), "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatalf("submit: %v", err)
	}
	defer resp.Body.Close()
	var st status
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatalf("decoding submit response: %v", err)
	}
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: status %d", resp.StatusCode)
	}
	return st
}

func (s *server) status(t *testing.T, id string) status {
	t.Helper()
	resp, err := http.Get(s.url("/api/v1/jobs/" + id))
	if err != nil {
		t.Fatalf("status: %v", err)
	}
	defer resp.Body.Close()
	var st status
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatalf("decoding status: %v", err)
	}
	return st
}

func TestGracefulShutdownMidJob(t *testing.T) {
	if testing.Short() {
		t.Skip("re-exec server test")
	}
	cacheDir := t.TempDir()
	srv := startServer(t, cacheDir)

	job := srv.submit(t, slowSweep)

	// Wait until the first cell has completed — the job is mid-flight — then
	// signal.
	deadline := time.Now().Add(2 * time.Minute)
	finished := 0
	for {
		if time.Now().After(deadline) {
			t.Fatalf("first cell never completed; stderr:\n%s", srv.errb)
		}
		if st := srv.status(t, job.ID); st.Progress.Completed >= 1 {
			finished = st.Progress.Completed
			break
		}
		time.Sleep(5 * time.Millisecond)
	}
	if err := srv.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	if err := srv.cmd.Wait(); err != nil {
		t.Fatalf("server exit: %v; stderr:\n%s", err, srv.errb)
	}

	// The drain persisted the cache index, and the cells that finished
	// before the signal (a prefix: one worker runs them in order) are in
	// the cache.
	if _, err := os.Stat(filepath.Join(cacheDir, "index.json")); err != nil {
		t.Errorf("cache index not persisted: %v", err)
	}
	store, err := memo.Open(cacheDir, memo.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defs, err := config.ParseDefenses("Base,Fe-Sp,IS-Sp")
	if err != nil {
		t.Fatal(err)
	}
	jobs := runner.Matrix([]string{"bzip2"}, false, []config.Consistency{config.TSO}, defs, nil, 1000, 100000)
	for _, j := range jobs[:finished] {
		key, err := campaign.Key(campaign.SpecForJob(j, engine.KernelFast))
		if err != nil {
			t.Fatal(err)
		}
		if _, ok := store.Get(key); !ok {
			t.Errorf("finished cell %s is not in the cache", j)
		}
	}

	// Warm restart over the same cache: the resubmitted job re-runs only the
	// refused cells; everything that finished before the drain is a hit.
	srv2 := startServer(t, cacheDir)
	job2 := srv2.submit(t, slowSweep)
	for {
		st := srv2.status(t, job2.ID)
		switch st.State {
		case "done":
			if st.Cache.Hits < 1 {
				t.Errorf("warm restart hits = %d, want >=1", st.Cache.Hits)
			}
			if st.Cache.Hits+st.Cache.Misses != 3 {
				t.Errorf("hits+misses = %d+%d, want 3", st.Cache.Hits, st.Cache.Misses)
			}
			goto shutdown
		case "failed", "interrupted":
			t.Fatalf("resubmitted job %s: %s", st.State, st.Error)
		}
		if time.Now().After(deadline.Add(3 * time.Minute)) {
			t.Fatalf("resubmitted job never finished; stderr:\n%s", srv2.errb)
		}
		time.Sleep(20 * time.Millisecond)
	}
shutdown:
	// Idle SIGTERM: clean, prompt exit.
	if err := srv2.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	if err := srv2.cmd.Wait(); err != nil {
		t.Fatalf("idle shutdown exit: %v; stderr:\n%s", err, srv2.errb)
	}
	if !bytes.Contains(srv2.errb.Bytes(), []byte("draining")) {
		t.Error("drain log line missing")
	}
}
