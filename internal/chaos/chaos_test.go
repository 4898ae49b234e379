package chaos

import (
	"testing"

	"xoridx/internal/core"
	"xoridx/internal/hash"
	"xoridx/internal/serve"
)

// baseOptions is the shared tuning problem: small enough that a
// re-tune round is cheap, with WindowAccesses pushed out of reach so
// rotation points are exactly the harness's explicit re-tunes (the
// clock-skew schedule overrides this to exercise automatic rotation).
func baseOptions() serve.Options {
	return serve.Options{
		Config:         core.Config{CacheBytes: 256, AddrBits: 12, Family: hash.FamilyGeneralXOR},
		Shards:         2,
		WindowAccesses: 1 << 40,
	}
}

// TestChaosMatrix is the §16 acceptance sweep: every seeded schedule
// against a supervised server, every invariant checked, plus the
// kind-specific expectation that the fault actually bit.
func TestChaosMatrix(t *testing.T) {
	for _, kind := range Kinds() {
		for _, seed := range []int64{1, 2, 3} {
			kind, seed := kind, seed
			t.Run(string(kind)+"/seed="+string('0'+rune(seed)), func(t *testing.T) {
				opt := baseOptions()
				switch kind {
				case KindPanic:
					// Snapshot cadence so restarts resume warm, zero
					// backoff so the run stays fast.
					opt.CheckpointEvery = 256
				case KindClockSkew:
					opt.WindowAccesses = 512 // let the window clock rotate mid-drive
				}
				rep, err := Run(Config{Serve: opt, Kind: kind, Seed: seed, Dir: t.TempDir()})
				if err != nil {
					t.Fatalf("harness: %v", err)
				}
				for _, v := range rep.Violations {
					t.Errorf("invariant violated: %s", v)
				}
				switch kind {
				case KindPanic:
					if rep.Stats.Restarts == 0 && rep.Stats.Quarantined == 0 {
						t.Errorf("panic schedule planted no fault: %+v", rep.Stats)
					}
				case KindOverload:
					if rep.Stats.Shed == 0 {
						t.Errorf("overload schedule shed nothing: %+v", rep.Stats)
					}
				case KindDisconnect:
					if rep.Stats.Ingested != rep.Sent {
						t.Errorf("disconnect storms lost delivered frames: ingested %d, sent %d",
							rep.Stats.Ingested, rep.Sent)
					}
				case KindClockSkew:
					if rep.Stats.Rotations == 0 {
						t.Errorf("clock-skew schedule saw no window rotation")
					}
				}
				if rep.FinalProfile == nil && kind != KindCorruptCkpt {
					t.Errorf("survived schedule but cannot serve a profile")
				}
				if len(rep.Epochs) == 0 || rep.Epochs[len(rep.Epochs)-1].Seq < 2 {
					t.Errorf("no re-tuned epoch was ever published: %+v", rep.Epochs)
				}
			})
		}
	}
}

// TestChaosDifferentialNoFaults is the bit-identity acceptance check:
// with fault injection disabled, a server with shedding and the
// snapshot cadence on must publish exactly the same matrix and serve
// exactly the same histogram as one with default supervision and
// blocking backpressure.
func TestChaosDifferentialNoFaults(t *testing.T) {
	run := func(opt serve.Options) *Report {
		rep, err := Run(Config{Serve: opt, Kind: KindNone, Seed: 7})
		if err != nil {
			t.Fatalf("harness: %v", err)
		}
		for _, v := range rep.Violations {
			t.Errorf("invariant violated: %s", v)
		}
		return rep
	}

	supervised := baseOptions()
	supervised.Shed = true
	supervised.CheckpointEvery = 512
	blocking := baseOptions()
	blocking.Shed = false

	a, b := run(supervised), run(blocking)
	if !a.FinalMatrix.Equal(b.FinalMatrix) {
		t.Errorf("published H diverged:\nsupervised %v\nblocking   %v", a.FinalMatrix, b.FinalMatrix)
	}
	if a.FinalProfile == nil || b.FinalProfile == nil {
		t.Fatalf("missing final profile: supervised %v, blocking %v", a.FinalProfile, b.FinalProfile)
	}
	pa, pb := a.FinalProfile, b.FinalProfile
	if pa.Accesses != pb.Accesses || pa.Compulsory != pb.Compulsory ||
		pa.Capacity != pb.Capacity || pa.Candidates != pb.Candidates ||
		pa.TotalPairs != pb.TotalPairs {
		t.Errorf("histogram totals diverged:\nsupervised %+v\nblocking   %+v", pa, pb)
	}
	sa, sb := pa.Support(), pb.Support()
	if len(sa) != len(sb) {
		t.Fatalf("support size diverged: %d vs %d", len(sa), len(sb))
	}
	for i := range sa {
		if sa[i] != sb[i] {
			t.Errorf("support[%d] diverged: %+v vs %+v", i, sa[i], sb[i])
		}
	}
	if a.Stats.Ingested != b.Stats.Ingested || a.Sent != b.Sent {
		t.Errorf("accounting diverged: supervised %d/%d, blocking %d/%d",
			a.Stats.Ingested, a.Sent, b.Stats.Ingested, b.Sent)
	}
}

// TestChaosScheduleDeterminism replays one seeded panic schedule and
// requires the fault placement — and therefore the restart count and
// the driver-side accounting — to reproduce exactly.
func TestChaosScheduleDeterminism(t *testing.T) {
	run := func() *Report {
		opt := baseOptions()
		opt.CheckpointEvery = 256
		rep, err := Run(Config{Serve: opt, Kind: KindPanic, Seed: 42})
		if err != nil {
			t.Fatalf("harness: %v", err)
		}
		for _, v := range rep.Violations {
			t.Errorf("invariant violated: %s", v)
		}
		return rep
	}
	a, b := run(), run()
	if a.Sent != b.Sent || a.Stats.Restarts != b.Stats.Restarts ||
		a.Stats.Quarantined != b.Stats.Quarantined {
		t.Errorf("same seed, different schedule: sent %d/%d restarts %d/%d quarantined %d/%d",
			a.Sent, b.Sent, a.Stats.Restarts, b.Stats.Restarts,
			a.Stats.Quarantined, b.Stats.Quarantined)
	}
}
