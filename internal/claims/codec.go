package claims

import (
	"encoding/json"
	"fmt"
	"io"
)

// datasetJSON is the on-disk representation consumed by the CLI tools. The
// silent-dependent pairs are serialized explicitly so that a round trip
// preserves the full D matrix, not just its claimed entries.
type datasetJSON struct {
	Sources    int         `json:"sources"`
	Assertions int         `json:"assertions"`
	Claims     []claimJSON `json:"claims"`
	SilentDep  []pairJSON  `json:"silentDependent,omitempty"`
}

type claimJSON struct {
	Source    int  `json:"source"`
	Assertion int  `json:"assertion"`
	Dependent bool `json:"dependent,omitempty"`
}

type pairJSON struct {
	Source    int `json:"source"`
	Assertion int `json:"assertion"`
}

// MarshalJSON implements json.Marshaler.
func (d *Dataset) MarshalJSON() ([]byte, error) {
	out := datasetJSON{Sources: d.n, Assertions: d.m}
	out.Claims = make([]claimJSON, 0, d.NumClaims())
	for j := 0; j < d.m; j++ {
		dep := d.ClaimDependent(j)
		for k, i := range d.Claimants(j) {
			out.Claims = append(out.Claims, claimJSON{Source: int(i), Assertion: j, Dependent: dep[k]})
		}
		for _, i := range d.SilentDependents(j) {
			out.SilentDep = append(out.SilentDep, pairJSON{Source: int(i), Assertion: j})
		}
	}
	return json.Marshal(out)
}

// MaxWireDim caps the source and assertion counts accepted from the wire.
// The dataset pre-allocates per-source and per-assertion index slices, so an
// attacker-controlled header like {"sources": 1e18} would otherwise turn a
// tiny JSON body into an enormous allocation (or, when negative, a panic in
// Build). In-memory construction via Builder is not capped.
const MaxWireDim = 1 << 20

// UnmarshalJSON implements json.Unmarshaler. It rejects negative or
// oversized (> MaxWireDim) dimension headers before building anything, so
// decoding untrusted input never panics and never allocates more than the
// input's declared, bounded shape.
func (d *Dataset) UnmarshalJSON(data []byte) error {
	var in datasetJSON
	if err := json.Unmarshal(data, &in); err != nil {
		return fmt.Errorf("claims: decode dataset: %w", err)
	}
	if in.Sources < 0 || in.Assertions < 0 {
		return fmt.Errorf("claims: decode dataset: negative dimensions (sources=%d, assertions=%d)", in.Sources, in.Assertions)
	}
	if in.Sources > MaxWireDim || in.Assertions > MaxWireDim {
		return fmt.Errorf("claims: decode dataset: dimensions (sources=%d, assertions=%d) exceed limit %d", in.Sources, in.Assertions, MaxWireDim)
	}
	b := NewBuilder(in.Sources, in.Assertions)
	for _, c := range in.Claims {
		b.AddClaim(c.Source, c.Assertion, c.Dependent)
	}
	for _, p := range in.SilentDep {
		b.MarkSilentDependent(p.Source, p.Assertion)
	}
	built, err := b.Build()
	if err != nil {
		return fmt.Errorf("claims: decode dataset: %w", err)
	}
	*d = *built
	return nil
}

// WriteTo streams the dataset as JSON.
func (d *Dataset) WriteTo(w io.Writer) (int64, error) {
	data, err := json.MarshalIndent(d, "", "  ")
	if err != nil {
		return 0, err
	}
	n, err := w.Write(data)
	return int64(n), err
}

// ReadDataset decodes a dataset from JSON.
func ReadDataset(r io.Reader) (*Dataset, error) {
	data, err := io.ReadAll(r)
	if err != nil {
		return nil, fmt.Errorf("claims: read dataset: %w", err)
	}
	var d Dataset
	if err := json.Unmarshal(data, &d); err != nil {
		return nil, err
	}
	return &d, nil
}
