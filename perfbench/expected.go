package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
)

// expected holds the recorded output digest of every (template, variant)
// input a workload can generate, so the outputs of any seed are checked
// against the simulator's recorded behaviour. Recorded with --record.
type expected struct {
	Workload string              `json:"workload"`
	Variants int                 `json:"variants"`
	Digests  map[string][]string `json:"digests"`
}

func expectedPath(root, workload string) string {
	return filepath.Join(root, "perfbench", "expected", workload+".json")
}

func loadExpected(root string, w *workload) (*expected, error) {
	b, err := os.ReadFile(expectedPath(root, w.name))
	if err != nil {
		return nil, fmt.Errorf("reading expected outputs: %w", err)
	}
	var e expected
	if err := json.Unmarshal(b, &e); err != nil {
		return nil, fmt.Errorf("parsing expected outputs: %w", err)
	}
	if e.Variants != w.variants {
		return nil, fmt.Errorf("expected outputs for %s cover %d variants, the workload has %d; re-record", w.name, e.Variants, w.variants)
	}
	for _, t := range w.templates {
		if len(e.Digests[t]) != w.variants {
			return nil, fmt.Errorf("expected outputs for %s lack template %q; re-record", w.name, t)
		}
	}
	return &e, nil
}

func (e *expected) digest(tmpl string, v int) string { return e.Digests[tmpl][v] }

// record runs every input of w once through its reference path and writes
// the digests.
func record(root string, w *workload, r runner) error {
	e := expected{Workload: w.name, Variants: w.variants, Digests: map[string][]string{}}
	for t, name := range w.templates {
		for v := 0; v < w.variants; v++ {
			out, err := r.reference(t, v)
			if err != nil {
				return fmt.Errorf("%s variant %d: %w", name, v, err)
			}
			e.Digests[name] = append(e.Digests[name], digest(out))
		}
	}
	b, err := json.MarshalIndent(e, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(expectedPath(root, w.name), append(b, '\n'), 0o644)
}
