package hist

import (
	"bytes"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"perfpred/internal/workload"
)

func populatedStore(t *testing.T) *Store {
	t.Helper()
	s := NewStore()
	truth := caseModelF()
	if err := s.RecordGradient(truth.M); err != nil {
		t.Fatal(err)
	}
	if err := s.RecordMaxThroughput("AppServF", TypicalWorkloadKey, truth.MaxThroughput); err != nil {
		t.Fatal(err)
	}
	for _, p := range syntheticPoints(truth, 2, 2) {
		if err := s.RecordPoint("AppServF", TypicalWorkloadKey, p); err != nil {
			t.Fatal(err)
		}
	}
	return s
}

func TestStoreRecordAndQuery(t *testing.T) {
	s := populatedStore(t)
	if got := s.Gradient(); got != 0.14 {
		t.Fatalf("gradient = %v", got)
	}
	x, ok := s.MaxThroughput("AppServF", TypicalWorkloadKey)
	if !ok || x != 186 {
		t.Fatalf("benchmark = %v, %v", x, ok)
	}
	if _, ok := s.MaxThroughput("AppServF", "buy=25"); ok {
		t.Fatal("missing workload key should report absent")
	}
	if _, ok := s.MaxThroughput("ghost", TypicalWorkloadKey); ok {
		t.Fatal("missing server should report absent")
	}
	pts := s.Points("AppServF", TypicalWorkloadKey)
	if len(pts) != 4 {
		t.Fatalf("points = %d", len(pts))
	}
	for i := 1; i < len(pts); i++ {
		if pts[i].Clients < pts[i-1].Clients {
			t.Fatal("points not sorted by clients")
		}
	}
	if s.Points("ghost", TypicalWorkloadKey) != nil {
		t.Fatal("missing server points should be nil")
	}
}

func TestStoreValidation(t *testing.T) {
	s := NewStore()
	if err := s.RecordPoint("", "k", DataPoint{Clients: 1, MeanRT: 1}); err == nil {
		t.Fatal("empty server should fail")
	}
	if err := s.RecordPoint("s", "", DataPoint{Clients: 1, MeanRT: 1}); err == nil {
		t.Fatal("empty workload key should fail")
	}
	if err := s.RecordPoint("s", "k", DataPoint{Clients: 0, MeanRT: 1}); err == nil {
		t.Fatal("invalid point should fail")
	}
	if err := s.RecordMaxThroughput("s", "k", 0); err == nil {
		t.Fatal("invalid benchmark should fail")
	}
	if err := s.RecordGradient(0); err == nil {
		t.Fatal("invalid gradient should fail")
	}
}

// calibrateFromStore fits relationship 1 for AppServF from what the
// store holds: its benchmark, the gradient and its data points.
func calibrateFromStore(s *Store) (*ServerModel, error) {
	x, _ := s.MaxThroughput("AppServF", TypicalWorkloadKey)
	return CalibrateServer(workload.AppServF(), x, s.Gradient(), s.Points("AppServF", TypicalWorkloadKey))
}

// The store holds everything the recalibration path §2's first
// supporting service describes needs: the calibrated model is the
// one the points were drawn from.
func TestStoreCalibrate(t *testing.T) {
	s := populatedStore(t)
	truth := caseModelF()
	model, err := calibrateFromStore(s)
	if err != nil {
		t.Fatal(err)
	}
	nStar := truth.SaturationClients()
	for _, n := range []float64{0.3 * nStar, 1.4 * nStar} {
		want := truth.Predict(n)
		got := model.Predict(n)
		if diff := (got - want) / want; diff > 1e-6 || diff < -1e-6 {
			t.Fatalf("store-calibrated predict(%v) = %v, want %v", n, got, want)
		}
	}
}

func TestStoreSaveLoadRoundTrip(t *testing.T) {
	s := populatedStore(t)
	var buf bytes.Buffer
	if err := s.save(&buf); err != nil {
		t.Fatal(err)
	}
	back := NewStore()
	if err := back.load(&buf); err != nil {
		t.Fatal(err)
	}
	if back.Gradient() != s.Gradient() {
		t.Fatal("gradient lost in round trip")
	}
	if len(back.Points("AppServF", TypicalWorkloadKey)) != 4 {
		t.Fatal("points lost in round trip")
	}
	if err := back.load(strings.NewReader("not json")); err == nil {
		t.Fatal("garbage should fail to load")
	}
}

func TestStoreFilePersistence(t *testing.T) {
	path := filepath.Join(t.TempDir(), "hydra.json")
	s := populatedStore(t)
	if err := s.SaveFile(path); err != nil {
		t.Fatal(err)
	}
	back := NewStore()
	if err := back.LoadFile(path); err != nil {
		t.Fatal(err)
	}
	if _, err := calibrateFromStore(back); err != nil {
		t.Fatalf("calibrate from reloaded store: %v", err)
	}
	// Missing files bootstrap silently.
	fresh := NewStore()
	if err := fresh.LoadFile(filepath.Join(t.TempDir(), "missing.json")); err != nil {
		t.Fatal(err)
	}
	if len(fresh.data.Servers) != 0 {
		t.Fatal("fresh store should be empty")
	}
}

// A save that fails part-way must not cost the history already on
// disk: the previous file survives byte for byte, no temporary file is
// left beside it, and a later good save replaces it with a document
// that loads back to the same store.
func TestSaveFileFailureKeepsPreviousFile(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "hydra.json")
	s := populatedStore(t)
	if err := s.SaveFile(path); err != nil {
		t.Fatal(err)
	}
	before, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}

	broken := populatedStore(t)
	broken.data.Gradient = math.NaN() // JSON cannot encode it: Save fails mid-document
	if err := broken.SaveFile(path); err == nil {
		t.Fatal("saving an unencodable store should fail")
	}
	after, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(before, after) {
		t.Fatalf("failed save changed the stored history: %d bytes, was %d", len(after), len(before))
	}
	if entries, _ := os.ReadDir(dir); len(entries) != 1 {
		t.Fatalf("failed save left %d files in the directory, want the store alone", len(entries))
	}

	if err := s.RecordMaxThroughput("AppServS", TypicalWorkloadKey, 86); err != nil {
		t.Fatal(err)
	}
	if err := s.SaveFile(path); err != nil {
		t.Fatal(err)
	}
	back := NewStore()
	if err := back.LoadFile(path); err != nil {
		t.Fatal(err)
	}
	var want, got bytes.Buffer
	if err := s.save(&want); err != nil {
		t.Fatal(err)
	}
	if err := back.save(&got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(want.Bytes(), got.Bytes()) {
		t.Fatal("store differs after a save and load through the file")
	}
	if info, err := os.Stat(path); err != nil || info.Mode().Perm() != 0o644 {
		t.Fatalf("saved store mode = %v (%v), want 0644", info.Mode().Perm(), err)
	}
}
