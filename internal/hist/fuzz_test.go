package hist

import (
	"bytes"
	"strings"
	"testing"
)

// FuzzStoreLoad hardens the HYDRA store's persistence path: arbitrary
// input either loads into a usable store or fails cleanly — never a
// panic, and whatever loads must save and re-load identically.
func FuzzStoreLoad(f *testing.F) {
	var seedBuf bytes.Buffer
	s := NewStore()
	_ = s.RecordGradient(0.14)
	_ = s.RecordMaxThroughput("AppServF", TypicalWorkloadKey, 186)
	_ = s.RecordPoint("AppServF", TypicalWorkloadKey, DataPoint{Clients: 100, MeanRT: 0.01, Samples: 50})
	_ = s.save(&seedBuf)
	f.Add(seedBuf.String())
	f.Add(`{}`)
	f.Add(`{"gradient": -1}`)
	f.Add(`{"servers": {"x": {"points": {"k": [{"Clients": 1}]}}}}`)
	f.Add(`not json`)

	f.Fuzz(func(t *testing.T, doc string) {
		st := NewStore()
		if err := st.load(strings.NewReader(doc)); err != nil {
			return
		}
		// Loaded stores must be queryable and round-trip.
		for srv := range st.data.Servers {
			_ = st.Points(srv, TypicalWorkloadKey)
			_, _ = st.MaxThroughput(srv, TypicalWorkloadKey)
		}
		var buf bytes.Buffer
		if err := st.save(&buf); err != nil {
			t.Fatalf("loaded store fails to save: %v", err)
		}
		again := NewStore()
		if err := again.load(&buf); err != nil {
			t.Fatalf("saved store fails to re-load: %v", err)
		}
	})
}
