package hist

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"sync"
)

// Store is HYDRA's historical performance data store: measured data
// points keyed by server architecture and workload signature, with the
// max-throughput benchmarks and gradient alongside, persisted as a
// JSON document. The paper's tool "allows the accuracy of
// relationships to be tested on variable quantities of historical
// data" — the store is what accumulates that data across benchmark
// runs and recalibrations.
type Store struct {
	mu   sync.RWMutex
	data storeData
}

type storeData struct {
	// Gradient is the shared clients→throughput gradient m (0 when
	// not yet calibrated).
	Gradient float64 `json:"gradient,omitempty"`
	// Servers maps architecture name to its records.
	Servers map[string]*serverRecord `json:"servers"`
}

type serverRecord struct {
	// MaxThroughput maps workload signature (e.g. "typical",
	// "buy=25") to the benchmarked max throughput.
	MaxThroughput map[string]float64 `json:"maxThroughput,omitempty"`
	// Points maps workload signature to recorded data points.
	Points map[string][]DataPoint `json:"points,omitempty"`
}

// TypicalWorkloadKey is the conventional signature for the all-browse
// typical workload.
const TypicalWorkloadKey = "typical"

// NewStore returns an empty store.
func NewStore() *Store {
	return &Store{data: storeData{Servers: make(map[string]*serverRecord)}}
}

func (s *Store) server(name string) *serverRecord {
	rec, ok := s.data.Servers[name]
	if !ok {
		rec = &serverRecord{
			MaxThroughput: make(map[string]float64),
			Points:        make(map[string][]DataPoint),
		}
		s.data.Servers[name] = rec
	}
	if rec.MaxThroughput == nil {
		rec.MaxThroughput = make(map[string]float64)
	}
	if rec.Points == nil {
		rec.Points = make(map[string][]DataPoint)
	}
	return rec
}

// RecordPoint appends a measured data point for the server under the
// workload signature.
func (s *Store) RecordPoint(server, workloadKey string, p DataPoint) error {
	if server == "" || workloadKey == "" {
		return errors.New("hist: store keys must be non-empty")
	}
	if p.Clients <= 0 || p.MeanRT <= 0 {
		return fmt.Errorf("hist: invalid data point %+v", p)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	rec := s.server(server)
	rec.Points[workloadKey] = append(rec.Points[workloadKey], p)
	return nil
}

// RecordMaxThroughput stores a max-throughput benchmark.
func (s *Store) RecordMaxThroughput(server, workloadKey string, x float64) error {
	if server == "" || workloadKey == "" {
		return errors.New("hist: store keys must be non-empty")
	}
	if x <= 0 {
		return fmt.Errorf("hist: invalid max throughput %v", x)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.server(server).MaxThroughput[workloadKey] = x
	return nil
}

// RecordGradient stores the shared gradient m.
func (s *Store) RecordGradient(m float64) error {
	if m <= 0 {
		return fmt.Errorf("hist: invalid gradient %v", m)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.data.Gradient = m
	return nil
}

// Gradient returns the stored gradient (0 when absent).
func (s *Store) Gradient() float64 {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.data.Gradient
}

// MaxThroughput returns the stored benchmark for the server and
// workload, reporting whether it exists.
func (s *Store) MaxThroughput(server, workloadKey string) (float64, bool) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	rec, ok := s.data.Servers[server]
	if !ok {
		return 0, false
	}
	x, ok := rec.MaxThroughput[workloadKey]
	return x, ok
}

// Points returns a copy of the stored data points for the server and
// workload, sorted by client count.
func (s *Store) Points(server, workloadKey string) []DataPoint {
	s.mu.RLock()
	defer s.mu.RUnlock()
	rec, ok := s.data.Servers[server]
	if !ok {
		return nil
	}
	pts := rec.Points[workloadKey]
	out := make([]DataPoint, len(pts))
	copy(out, pts)
	sort.Slice(out, func(i, j int) bool { return out[i].Clients < out[j].Clients })
	return out
}

// save writes the store as indented JSON.
func (s *Store) save(w io.Writer) error {
	s.mu.RLock()
	defer s.mu.RUnlock()
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(s.data)
}

// load replaces the store's contents from a JSON document previously
// written by Save.
func (s *Store) load(r io.Reader) error {
	var data storeData
	dec := json.NewDecoder(r)
	if err := dec.Decode(&data); err != nil {
		return fmt.Errorf("hist: loading store: %w", err)
	}
	if data.Servers == nil {
		data.Servers = make(map[string]*serverRecord)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.data = data
	return nil
}

// SaveFile persists the store to path (0644). The document goes to a
// temporary file beside the target, is flushed, and is renamed over
// it, so a failed or interrupted save leaves the previous file intact.
func (s *Store) SaveFile(path string) error {
	f, err := os.CreateTemp(filepath.Dir(path), filepath.Base(path)+".tmp*")
	if err != nil {
		return err
	}
	defer os.Remove(f.Name()) // fails, harmlessly, once renamed
	err = s.save(f)
	if err == nil {
		err = f.Chmod(0o644)
	}
	if err == nil {
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return err
	}
	return os.Rename(f.Name(), path)
}

// LoadFile reads a store from path; a missing file yields an empty
// store without error, so first runs bootstrap cleanly.
func (s *Store) LoadFile(path string) error {
	f, err := os.Open(path)
	if errors.Is(err, os.ErrNotExist) {
		return nil
	}
	if err != nil {
		return err
	}
	defer f.Close()
	return s.load(f)
}
