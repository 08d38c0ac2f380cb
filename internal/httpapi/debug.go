package httpapi

import (
	"net/http"
	"path/filepath"
	"strconv"

	"depsense/internal/apollo"
	"depsense/internal/jsonl"
	"depsense/internal/trace"
)

// Flight returns the server's flight recorder, for programmatic access to
// retained run traces (tests, embedding servers).
func (s *Server) Flight() *trace.FlightRecorder { return s.flight }

// newRunTrace starts the per-request trace record for a factfind request:
// id shared with the access log, workload attrs, hook to be composed with
// the metrics exporter via runctx.MultiHook. The worker count is
// deliberately NOT an attr: traces are byte-identical at any Workers value
// (outside timing fields), and recording the knob itself would break that
// guarantee — the count is in the access log and server config instead.
func (s *Server) newRunTrace(r *http.Request, algorithm string) *trace.Builder {
	b := trace.NewBuilder("req-"+strconv.FormatUint(s.requestID(r), 10), "factfind", s.clock)
	b.SetAttr("algorithm", algorithm)
	return b
}

// finishRunTrace seals the builder with the run outcome, records the trace
// into the flight recorder, and spills it to TraceDir when configured. It
// returns the trace id so responses can point the client at
// /debug/runs/{id}.
func (s *Server) finishRunTrace(b *trace.Builder, out *apollo.Output, err error) string {
	if out != nil {
		for _, st := range out.Stages {
			b.Stage(st.Stage, st.Duration)
		}
	}
	status := trace.StatusOf(err)
	errMsg := ""
	if err != nil {
		errMsg = err.Error()
	}
	t := b.Finish(status, errMsg)
	s.flight.Record(t)
	s.spillTrace(t)
	return t.ID
}

// spillTrace appends one finished trace to TraceDir/traces.jsonl. Spill
// failures are an operational problem, not a request failure: they are
// logged and the request proceeds.
func (s *Server) spillTrace(t *trace.Trace) {
	if s.opts.TraceDir == "" {
		return
	}
	path := filepath.Join(s.opts.TraceDir, trace.SpillFile)
	s.spillMu.Lock()
	defer s.spillMu.Unlock()
	if err := jsonl.Append(path, t); err != nil {
		s.log.Error("trace spill failed", "path", path, "err", err)
	}
}
