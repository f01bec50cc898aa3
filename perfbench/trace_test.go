package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
	"time"

	"ciflow/internal/ckks"
	"ciflow/internal/engine"
)

func TestSelfTimeSubtractsMergedChildren(t *testing.T) {
	spans := []span{
		{ID: 1, Name: "a.root", Start: 0, End: 100},
		{ID: 2, Parent: 1, Name: "b.x", Start: 10, End: 30},
		{ID: 3, Parent: 1, Name: "b.y", Start: 20, End: 50}, // overlaps b.x
		{ID: 4, Parent: 1, Name: "c.z", Start: 60, End: 70},
		{ID: 5, Parent: 4, Name: "d.w", Start: 65, End: 90}, // runs past its parent
	}
	self := selfTimes(spans)
	want := map[int64]time.Duration{1: 50, 2: 20, 3: 30, 4: 5, 5: 25}
	for id, w := range want {
		if self[id] != w {
			t.Errorf("span %d: self %v, want %v", id, self[id], w)
		}
	}
	layers := layerSelf(spans)
	if layers["a"] != 50 || layers["b"] != 50 || layers["c"] != 5 || layers["d"] != 25 {
		t.Errorf("per-layer self times %v", layers)
	}
}

// A traced probe over a small ring: the span file parses, no child's
// self time exceeds its parent's duration, and both sum ratios are
// printed with their bases.
func TestTracedProbe(t *testing.T) {
	cctx, err := ckks.NewContext(1<<10, numQ, qBits, numP, pBits, keyswitchDnum)
	if err != nil {
		t.Fatal(err)
	}
	e := engine.New(runtime.GOMAXPROCS(0))
	defer e.Close()
	kc, _ := ckks.GenKeys(cctx, 3)
	fix, err := newSwitchFixture(cctx, kc, e, 3, 1)
	if err != nil {
		t.Fatal(err)
	}
	tr := newTracer()
	rep := newReport()
	if err := probeLayers(rep, cctx, fix, tr); err != nil {
		t.Fatal(err)
	}

	spans := tr.spans()
	byID := map[int64]span{}
	for _, s := range spans {
		byID[s.ID] = s
	}
	self := selfTimes(spans)
	for _, s := range spans {
		if self[s.ID] < 0 || self[s.ID] > time.Duration(s.End-s.Start) {
			t.Errorf("span %s: self %v outside [0, %v]", s.Name, self[s.ID], time.Duration(s.End-s.Start))
		}
		if s.Parent == 0 {
			continue
		}
		p, ok := byID[s.Parent]
		if !ok {
			t.Fatalf("span %s: parent %d not recorded", s.Name, s.Parent)
		}
		if self[s.ID] > time.Duration(p.End-p.Start) {
			t.Errorf("span %s: self %v exceeds its parent %s (%v)", s.Name, self[s.ID], p.Name, time.Duration(p.End-p.Start))
		}
	}

	path := filepath.Join(t.TempDir(), "spans.json")
	if err := tr.write(path, "probe", 3, layerSelf(spans)); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var f spanFile
	if err := json.Unmarshal(data, &f); err != nil {
		t.Fatalf("span file does not parse: %v", err)
	}
	if len(f.Spans) != len(spans) || f.SelfNsLayer["hks"] <= 0 || f.SelfNsLayer["ntt"] <= 0 {
		t.Errorf("span file: %d spans (want %d), self by layer %v", len(f.Spans), len(spans), f.SelfNsLayer)
	}

	var out bytes.Buffer
	rep.print(&out)
	text := out.String()
	for name, bases := range map[string][]string{
		"hks.stage_sum_ratio":  {"stage sum", "KeySwitch"},
		"hks.kernel_sum_ratio": {"kernel sum", "KeySwitch"},
	} {
		line := lineOf(text, name)
		for _, b := range bases {
			if !strings.Contains(line, b) {
				t.Errorf("%s printed without its base %q: %q", name, b, line)
			}
		}
	}
	for _, base := range []string{"hks.stage_sum_ms", "hks.kernel_sum_ms", "hks.keyswitch_ms"} {
		if _, ok := rep.out.Metrics[base]; !ok {
			t.Errorf("base metric %s missing", base)
		}
	}
}

func lineOf(text, name string) string {
	for _, l := range strings.Split(text, "\n") {
		if strings.HasPrefix(l, name+" ") {
			return l
		}
	}
	return ""
}
