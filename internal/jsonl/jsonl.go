// Package jsonl is the one JSON-lines codec behind every depsense spill:
// run traces (traces.jsonl), quality verdicts (quality.jsonl) and the trace
// files the CLIs write. A record is one compact JSON object per line, with
// field order fixed by its Go type, so the same records always encode to the
// same bytes — what lets tests diff spills across Workers values.
//
// The reader is strict: every line must be one JSON object whose fields all
// belong to the record type. A spill of the wrong kind, or with a corrupt
// or foreign line, fails with the line number instead of decoding to
// zero-valued records.
package jsonl

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
)

// maxLineBytes bounds a single line (64 MiB). A trace holds at most a few
// thousand iteration events and a verdict a fixed bucket list, far below
// this, so hitting the limit indicates a corrupt file rather than a big run.
const maxLineBytes = 64 << 20

// Write encodes recs to w, one line each, in a single Write call.
func Write[T any](w io.Writer, recs ...*T) error {
	var buf bytes.Buffer
	for i, r := range recs {
		line, err := json.Marshal(r)
		if err != nil {
			return fmt.Errorf("jsonl: encode record %d: %w", i, err)
		}
		buf.Write(line)
		buf.WriteByte('\n')
	}
	_, err := w.Write(buf.Bytes())
	return err
}

// WriteFile writes recs as a JSONL file at path, replacing any existing
// file.
func WriteFile[T any](path string, recs ...*T) error {
	return writePath(path, os.O_CREATE|os.O_WRONLY|os.O_TRUNC, recs)
}

// Append appends recs to the JSONL file at path, creating it when missing:
// the spill writer of the serving and ingest layers.
func Append[T any](path string, recs ...*T) error {
	return writePath(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, recs)
}

func writePath[T any](path string, flag int, recs []*T) error {
	f, err := os.OpenFile(path, flag, 0o644)
	if err != nil {
		return err
	}
	if err := Write(f, recs...); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// Read decodes a JSONL stream of T records. Blank lines are skipped. A line
// that is not one JSON object of T's fields fails the read with its line
// number, since a spill with a corrupt record should be noticed, not
// silently truncated; the records decoded before it are returned with the
// error.
func Read[T any](r io.Reader) ([]*T, error) {
	var out []*T
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), maxLineBytes)
	for lineNo := 1; sc.Scan(); lineNo++ {
		line := bytes.TrimSpace(sc.Bytes())
		if len(line) == 0 {
			continue
		}
		rec := new(T)
		if err := decodeLine(line, rec); err != nil {
			return out, fmt.Errorf("jsonl: line %d: %w", lineNo, err)
		}
		out = append(out, rec)
	}
	if err := sc.Err(); err != nil {
		return out, fmt.Errorf("jsonl: read: %w", err)
	}
	return out, nil
}

// ReadFile decodes the JSONL file at path; errors name the file.
func ReadFile[T any](path string) ([]*T, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	recs, err := Read[T](f)
	if err != nil {
		return recs, fmt.Errorf("%s: %w", path, err)
	}
	return recs, nil
}

// decodeLine decodes exactly one JSON object with no unknown fields.
func decodeLine(line []byte, v any) error {
	if line[0] != '{' {
		return errors.New("record is not a JSON object")
	}
	dec := json.NewDecoder(bytes.NewReader(line))
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return err
	}
	if dec.InputOffset() != int64(len(line)) {
		return errors.New("unexpected data after the record")
	}
	return nil
}
