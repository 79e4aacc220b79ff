package main

import (
	"math"
	"os"
	"path/filepath"
	"testing"
)

func TestParseGoal(t *testing.T) {
	class, goal, err := parseGoal("browse:0.3")
	if err != nil {
		t.Fatal(err)
	}
	if class != "browse" || math.Abs(goal-0.3) > 1e-12 {
		t.Fatalf("parsed %q %v", class, goal)
	}
	if _, _, err := parseGoal("browse"); err == nil {
		t.Fatal("missing goal should fail")
	}
	for _, bad := range []string{"browse:abc", "browse:NaN", "browse:Inf", "browse:0", "browse:-0.3"} {
		if _, _, err := parseGoal(bad); err == nil {
			t.Fatalf("%q should fail", bad)
		}
	}
}

func TestLoadModelTrade(t *testing.T) {
	m, err := loadModel(true, "AppServF", 100, 0.1, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Validate(); err != nil {
		t.Fatal(err)
	}
	if _, err := loadModel(true, "nope", 100, 0, nil); err == nil {
		t.Fatal("bad server should fail")
	}
}

func TestLoadModelFile(t *testing.T) {
	doc := `{"processors":[{"name":"cpu","mult":1,"speed":1,"sched":"ps"}],
	         "tasks":[{"name":"app","processor":"cpu","mult":5,
	                   "entries":[{"name":"op","demand":0.02}]}],
	         "classes":[{"name":"users","population":10,"think":1,
	                     "calls":[{"target":"op","mean":1}]}]}`
	path := filepath.Join(t.TempDir(), "model.json")
	if err := os.WriteFile(path, []byte(doc), 0o644); err != nil {
		t.Fatal(err)
	}
	m, err := loadModel(false, "", 0, 0, []string{path})
	if err != nil {
		t.Fatal(err)
	}
	if len(m.Classes) != 1 {
		t.Fatalf("classes = %d", len(m.Classes))
	}
	if _, err := loadModel(false, "", 0, 0, nil); err == nil {
		t.Fatal("missing file arg should fail")
	}
	if _, err := loadModel(false, "", 0, 0, []string{"/nonexistent.json"}); err == nil {
		t.Fatal("missing file should fail")
	}
}
