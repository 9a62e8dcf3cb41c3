package leakage

// Chaos self-test for the leakage campaign: a checkpointed scan SIGKILLed
// at seeded random store writes must resume, from the store reopened as a
// restarted process would, to a report whose
// deterministic payload is byte-identical to an uninterrupted scan's, at 1
// and 4 workers. Part of `make chaos`.

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"testing"

	"invisispec/internal/campaign"
	"invisispec/internal/config"
	"invisispec/internal/memo"
)

func TestChaosLeakageKillResume(t *testing.T) {
	if testing.Short() {
		t.Skip("leakage chaos in -short")
	}
	specs := SmokeCorpus()[:2]
	base := ScanOptions{
		Defenses:    []config.Defense{config.Base, config.ISSpectre},
		Consistency: config.TSO,
		Trials:      2,
		Name:        "chaos",
	}

	payload := func(r *Report) []byte {
		t.Helper()
		b, err := json.Marshal(r.DeterministicPayload())
		if err != nil {
			t.Fatal(err)
		}
		return b
	}

	clean, err := Scan(context.Background(), specs, base)
	if err != nil {
		t.Fatal(err)
	}
	want := payload(clean)
	cellCount := len(specs) * len(base.Defenses) * base.Trials

	for _, seed := range []int64{11, 22, 33} {
		for _, workers := range []int{1, 4} {
			t.Run(fmt.Sprintf("seed%d-w%d", seed, workers), func(t *testing.T) {
				rng := rand.New(rand.NewSource(seed))
				opts := base
				opts.Jobs = workers
				dir := t.TempDir()
				opts.Campaign = campaign.Options{
					Store:   openStore(t, dir),
					Retries: 1,
					Seed:    seed,
				}
				// Kill the scan at a random store write, then resume; a
				// kill point past the remaining writes means the scan
				// completed this round.
				opts.Campaign.Chaos = &campaign.ChaosOptions{
					Seed:        rng.Int63(),
					KillAtWrite: 1 + rng.Intn(cellCount),
				}
				rep, err := Scan(context.Background(), specs, opts)
				if err != nil {
					if !errors.Is(err, campaign.ErrKilled) {
						t.Fatal(err)
					}
					resumed := opts
					resumed.Campaign.Chaos = nil
					resumed.Campaign.Store = openStore(t, dir)
					rep, err = Scan(context.Background(), specs, resumed)
					if err != nil {
						t.Fatal(err)
					}
				}
				if got := payload(rep); !bytes.Equal(got, want) {
					t.Fatalf("resumed leakage payload drifted from clean run:\n%s\n--- want ---\n%s", got, want)
				}
			})
		}
	}
}

// openStore opens the checkpoint store at dir, as a fresh process would.
func openStore(t *testing.T, dir string) *memo.Store {
	t.Helper()
	s, err := memo.Open(dir, memo.Options{})
	if err != nil {
		t.Fatal(err)
	}
	return s
}
