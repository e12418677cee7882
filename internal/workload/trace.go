package workload

import (
	"encoding/csv"
	"fmt"
	"io"
	"strconv"
	"time"
)

// ReadTrace parses a flow trace from CSV so users can replay their own
// workloads instead of the synthetic generators. Expected columns:
//
//	start_us, src, dst, size_bytes, service
//
// The first row is treated as a header when its first cell names a
// column rather than starting a number (fails float parsing and does
// not begin with a digit, sign or dot). A header may have any column
// width — exporters add columns this reader ignores — but data rows
// must have exactly five, and a malformed data value is always an
// error, never silently skipped (a first row like "12x3,..." begins
// numerically, so it is a bad data row, not a header). Lines must
// satisfy 0 <= start_us <= maxStartUS, src and dst >= 0 and distinct
// (the fabric a trace is replayed on bounds them from above), size >= 1
// and service >= 0; non-decreasing start times are NOT required (the trace is returned as given; schedule it with
// sim.ScheduleAt which tolerates any order). Errors reference physical
// line numbers of the input, so blank lines and the header do not
// shift them.
func ReadTrace(r io.Reader) ([]FlowSpec, error) {
	cr := csv.NewReader(r)
	cr.TrimLeadingSpace = true
	// Column counts are validated below, per row kind, so a header row
	// wider or narrower than the data does not trip the reader.
	cr.FieldsPerRecord = -1
	var out []FlowSpec
	row := 0
	for {
		rec, err := cr.Read()
		if err == io.EOF {
			break
		}
		if err != nil {
			// csv.ParseError messages already carry the physical line
			// number; wrapping must not invent a second, diverging one.
			return nil, fmt.Errorf("trace: %w", err)
		}
		row++
		// Physical line of the record's first field: the number a user
		// can jump to in an editor, unlike the record count (which
		// drifts past blank lines and the header).
		line, _ := cr.FieldPos(0)
		if row == 1 && isHeaderField(rec[0]) {
			continue
		}
		if len(rec) != 5 {
			return nil, fmt.Errorf("trace line %d: want 5 columns, got %d", line, len(rec))
		}
		startUS, err := strconv.ParseFloat(rec[0], 64)
		// The comparison also refuses NaN; the bound keeps the
		// conversion to a Duration and any deadline past it exact.
		if err != nil || !(startUS >= 0 && startUS <= maxStartUS) {
			return nil, fmt.Errorf("trace line %d: bad start %q", line, rec[0])
		}
		src, err1 := strconv.Atoi(rec[1])
		dst, err2 := strconv.Atoi(rec[2])
		size, err3 := strconv.ParseInt(rec[3], 10, 64)
		service, err4 := strconv.Atoi(rec[4])
		if err1 != nil || err2 != nil || err3 != nil || err4 != nil {
			return nil, fmt.Errorf("trace line %d: malformed fields", line)
		}
		if src < 0 || dst < 0 {
			return nil, fmt.Errorf("trace line %d: negative host index", line)
		}
		if src == dst {
			return nil, fmt.Errorf("trace line %d: src == dst", line)
		}
		if size < 1 {
			return nil, fmt.Errorf("trace line %d: size %d < 1", line, size)
		}
		if service < 0 {
			return nil, fmt.Errorf("trace line %d: negative service", line)
		}
		out = append(out, FlowSpec{
			Start:   time.Duration(startUS * float64(time.Microsecond)),
			Src:     src,
			Dst:     dst,
			Size:    size,
			Service: service,
		})
	}
	return out, nil
}

// maxStartUS is the latest start time a trace may name, in
// microseconds: 2^52, about 142 years — exact as a float64 and, in
// nanoseconds, half of what a time.Duration holds.
const maxStartUS = 1 << 52

// isHeaderField reports whether a first-row, first-column cell names a
// column ("start_us") rather than starting a data row: it fails float
// parsing and does not even begin numerically. A cell like "12x3"
// begins with a digit, so it is a malformed data value — reported as
// an error by the caller, never skipped as a header.
func isHeaderField(s string) bool {
	if _, err := strconv.ParseFloat(s, 64); err == nil {
		return false
	}
	if s == "" {
		return false
	}
	switch c := s[0]; {
	case c >= '0' && c <= '9', c == '+', c == '-', c == '.':
		return false
	}
	return true
}

// WriteTrace renders flows in the ReadTrace CSV format (with header).
func WriteTrace(w io.Writer, flows []FlowSpec) error {
	cw := csv.NewWriter(w)
	if err := cw.Write([]string{"start_us", "src", "dst", "size_bytes", "service"}); err != nil {
		return fmt.Errorf("write trace header: %w", err)
	}
	for _, f := range flows {
		rec := []string{
			strconv.FormatFloat(float64(f.Start)/float64(time.Microsecond), 'f', 3, 64),
			strconv.Itoa(f.Src),
			strconv.Itoa(f.Dst),
			strconv.FormatInt(f.Size, 10),
			strconv.Itoa(f.Service),
		}
		if err := cw.Write(rec); err != nil {
			return fmt.Errorf("write trace row: %w", err)
		}
	}
	cw.Flush()
	return cw.Error()
}
