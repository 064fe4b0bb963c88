package persist

import (
	"bytes"
	"encoding/json"
	"testing"

	"rdasched/internal/core"
	"rdasched/internal/pp"
	"rdasched/internal/sim"
)

// fuzzSeedState is a populated state exercising every State branch:
// sharded domains, waitlisted and admitted periods, a governor, armed
// timers, and set-level placement.
func fuzzSeedState() core.State {
	gov := core.GovState{
		Level:      core.GovDegraded,
		Pressured:  true,
		WaitCounts: make([]uint32, 64),
		Breakers:   []core.BreakerSnap{{Proc: 3, State: core.BreakerOpen, Strikes: 2}},
		NextTickAt: sim.Time(0).Add(sim.FromSeconds(0.5)),
	}
	return core.State{
		At: sim.Time(0).Add(sim.FromSeconds(0.25)),
		Domains: []core.DomainState{
			{
				NextID:   7,
				Capacity: []pp.Bytes{pp.KB(3840), 0},
				Usage:    []pp.Bytes{pp.KB(3840), 0},
				Peak:     []pp.Bytes{pp.KB(3840), 0},
				Periods: []core.PeriodState{
					{ID: 2, Proc: 0, Phase: 1, Admitted: true, Refs: 1,
						LeaseAt: sim.Time(0).Add(sim.FromSeconds(1))},
					{ID: 5, Proc: 4, Phase: 1, Ticket: 3, Waiters: []int{4},
						EnqueuedAt: sim.Time(0).Add(sim.FromSeconds(0.1)),
						DeadlineAt: sim.Time(0).Add(sim.FromSeconds(0.7))},
				},
				WaitSeq: 3,
				Parked:  []int{4},
				Inside:  []core.InsideEntry{{Thread: 0, Proc: 0, Phase: 1}},
				Gov:     &gov,
			},
			{Capacity: []pp.Bytes{pp.KB(3840), 0}, Usage: []pp.Bytes{0, 0}, Peak: []pp.Bytes{0, 0}},
		},
		Set: &core.SetState{
			NextID:      7,
			DomainOf:    []core.PlacementEntry{{Proc: 0, Phase: 1, Domain: 0}, {Proc: 4, Phase: 1, Domain: 0}},
			Placements:  2,
			StealTickAt: sim.Time(0).Add(sim.FromSeconds(0.3)),
		},
	}
}

// FuzzJournalDecode pins the reader's safety contract on arbitrary
// bytes: it never panics, and it gives a reason exactly when it
// truncates.
func FuzzJournalDecode(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0, 0, 0})
	clean := encodeRecords(f, sampleRecords(3))
	f.Add(clean)
	torn := append([]byte(nil), clean[:len(clean)-3]...)
	f.Add(torn)
	crc := append([]byte(nil), clean...)
	crc[len(crc)-1] ^= 0xff
	f.Add(crc)
	f.Fuzz(func(t *testing.T, data []byte) {
		_, truncated, reason := DecodeJournal(data)
		if truncated && reason == "" {
			t.Fatal("truncated without a reason")
		}
		if !truncated && reason != "" {
			t.Fatalf("reason %q without truncation", reason)
		}
	})
}

// FuzzSnapshotRoundTrip pins that the canonical snapshot encoding is a
// fixed point: any state that decodes from a snapshot re-encodes,
// re-decodes, and re-encodes to identical bytes. The restore
// consistency check compares canonical encodings, so a non-idempotent
// encoding would make honest restores diverge.
func FuzzSnapshotRoundTrip(f *testing.F) {
	seed, err := json.Marshal(snapshotFile{Seq: 12, State: fuzzSeedState()})
	if err != nil {
		f.Fatal(err)
	}
	f.Add(seed)
	f.Add([]byte(`{"Seq":0,"State":{"At":0,"Domains":null,"Set":null}}`))
	f.Fuzz(func(t *testing.T, data []byte) {
		var sf snapshotFile
		if err := json.Unmarshal(data, &sf); err != nil {
			t.Skip()
		}
		b1, err := sf.State.Canonical()
		if err != nil {
			t.Skip() // unmarshalable floats etc. cannot come from a real snapshot
		}
		var st core.State
		if err := json.Unmarshal(b1, &st); err != nil {
			t.Fatalf("canonical encoding does not decode: %v", err)
		}
		b2, err := st.Canonical()
		if err != nil {
			t.Fatalf("re-encode: %v", err)
		}
		if !bytes.Equal(b1, b2) {
			t.Fatalf("canonical encoding is not a fixed point:\n%s\nvs\n%s", b1, b2)
		}
	})
}
