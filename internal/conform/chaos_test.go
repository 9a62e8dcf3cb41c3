package conform

// Chaos self-test for the conformance campaign: a checkpointed fuzz
// campaign SIGKILLed at seeded random store writes must resume, from the
// store reopened as a restarted process would, to a report
// whose deterministic payload is byte-identical to an uninterrupted run's,
// at 1 and 4 workers. Part of `make chaos`.

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math/rand"
	"testing"

	"invisispec/internal/campaign"
	"invisispec/internal/memo"
)

func TestChaosConformKillResume(t *testing.T) {
	if testing.Short() {
		t.Skip("conform chaos in -short")
	}
	base := Options{Seed: 77, N: 4}

	payload := func(r *Report) []byte {
		t.Helper()
		b, err := r.DeterministicPayload()
		if err != nil {
			t.Fatal(err)
		}
		return b
	}

	clean, err := Campaign(context.Background(), base)
	if err != nil {
		t.Fatal(err)
	}
	want := payload(clean)

	for _, seed := range []int64{5, 6, 7} {
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
				opts.Campaign.Chaos = &campaign.ChaosOptions{
					Seed:        rng.Int63(),
					KillAtWrite: 1 + rng.Intn(base.N),
				}
				rep, err := Campaign(context.Background(), opts)
				if err != nil {
					if !errors.Is(err, campaign.ErrKilled) {
						t.Fatal(err)
					}
					resumed := opts
					resumed.Campaign.Chaos = nil
					resumed.Campaign.Store = openStore(t, dir)
					rep, err = Campaign(context.Background(), resumed)
					if err != nil {
						t.Fatal(err)
					}
				}
				if got := payload(rep); !bytes.Equal(got, want) {
					t.Fatalf("resumed conform payload drifted from clean run:\n%s\n--- want ---\n%s", got, want)
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
