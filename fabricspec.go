package logtmse

import (
	"context"
	"encoding/json"
	"fmt"

	"logtmse/internal/fabric"
)

// The fabric boundary: how a Figure 4 campaign becomes fabric cells and
// how a worker turns one back into a simulation.
//
// A CellSpec deliberately carries only the compact campaign inputs —
// workload, variant label, scale, threads, seed — never a serialized
// RunConfig (whose observer fields are functions). Both sides derive
// the full RunConfig through the same DefaultParams()+VariantByName
// path, and the cell's fingerprint doubles as a version-skew guard: a
// worker whose binary derives a different fingerprint for the same spec
// (older Params schema, recalibrated workload, bumped
// FingerprintSchemaVersion) refuses the cell instead of contributing a
// stale result under a current key.

// CellSpec is the wire form of one Figure 4 simulation cell.
type CellSpec struct {
	Workload string  `json:"workload"`
	Variant  string  `json:"variant"`
	Scale    float64 `json:"scale"`
	Threads  int     `json:"threads"`
	Seed     int64   `json:"seed"`
}

// runConfig derives the full cell configuration from the compact spec.
func (s CellSpec) runConfig() (RunConfig, error) {
	v, ok := VariantByName(s.Variant)
	if !ok {
		return RunConfig{}, fmt.Errorf("logtmse: unknown variant %q", s.Variant)
	}
	if _, ok := WorkloadByName(s.Workload); !ok {
		return RunConfig{}, fmt.Errorf("logtmse: unknown workload %q", s.Workload)
	}
	params := DefaultParams()
	return RunConfig{
		Workload: s.Workload,
		Variant:  v,
		Scale:    s.Scale,
		Threads:  s.Threads,
		Params:   &params,
		Seeds:    []int64{s.Seed},
	}.withDefaults(), nil
}

// Figure4Cells enumerates a Figure 4 campaign as fabric cells in the
// exact submission order of a local run (workload-major, then variant,
// then seed — the MapNotify order of Figure4Observed), keyed by cell
// fingerprint. Reassembling the payloads in index order therefore
// reproduces the local report byte for byte.
func Figure4Cells(workloads []string, scale float64, seeds []int64, threads int) ([]fabric.Cell, error) {
	var cells []fabric.Cell
	for _, w := range workloads {
		for _, v := range Figure4Variants() {
			for _, seed := range seeds {
				spec := CellSpec{Workload: w, Variant: v.Name, Scale: scale, Threads: threads, Seed: seed}
				rc, err := spec.runConfig()
				if err != nil {
					return nil, err
				}
				key, err := Fingerprint(rc, seed)
				if err != nil {
					return nil, err
				}
				raw, err := json.Marshal(spec)
				if err != nil {
					return nil, err
				}
				cells = append(cells, fabric.Cell{Index: len(cells), Key: key, Spec: raw})
			}
		}
	}
	return cells, nil
}

// ExecuteCell returns the fabric executor: decode the spec, re-derive
// the cell, verify the fingerprint (the skew guard), simulate, and
// gob-encode the result. The optional cache is threaded into RunOne, so
// a worker with a disk or remote memo tier serves repeats without
// simulating.
func ExecuteCell(cache *ResultCache) func(ctx context.Context, c fabric.Cell) ([]byte, error) {
	return func(_ context.Context, c fabric.Cell) ([]byte, error) {
		var spec CellSpec
		if err := json.Unmarshal(c.Spec, &spec); err != nil {
			return nil, fmt.Errorf("logtmse: undecodable cell spec: %w", err)
		}
		rc, err := spec.runConfig()
		if err != nil {
			return nil, err
		}
		key, err := Fingerprint(rc, spec.Seed)
		if err != nil {
			return nil, err
		}
		if key != c.Key {
			return nil, fmt.Errorf("logtmse: version skew: this binary derives fingerprint %.12s for cell %.12s — refusing to compute a stale result", key, c.Key)
		}
		rc.Cache = cache
		r, err := RunOne(rc, spec.Seed)
		if err != nil {
			return nil, err
		}
		return encodeResult(r)
	}
}

// Figure4RowsFromPayloads reassembles the fabric campaign's payloads
// (in Figure4Cells index order) into the same rows a local
// Figure4Observed run produces.
func Figure4RowsFromPayloads(workloads []string, seeds []int64, payloads [][]byte) ([]Figure4Row, error) {
	perRow := len(Figure4Variants()) * len(seeds)
	if len(payloads) != len(workloads)*perRow {
		return nil, fmt.Errorf("logtmse: %d payloads for %d workloads × %d cells/row", len(payloads), len(workloads), perRow)
	}
	rows := make([]Figure4Row, 0, len(workloads))
	for wi, w := range workloads {
		outs := make([]seedOut, perRow)
		for i := range outs {
			r, err := decodeResult(payloads[wi*perRow+i])
			if err != nil {
				return nil, fmt.Errorf("logtmse: payload %d: %w", wi*perRow+i, err)
			}
			outs[i] = seedOut{r: r}
		}
		row, err := figure4RowFromOuts(w, seeds, outs)
		if err != nil {
			return nil, err
		}
		rows = append(rows, row)
	}
	return rows, nil
}
