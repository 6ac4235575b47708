package obs

import (
	"fmt"
	"io"
	"reflect"
	"strconv"
	"strings"
	"time"
)

// WriteStats renders the fields of the struct v that carry a
// `metric:"<name>"` tag, one sample each: ints and uints as they are,
// bools as 0 or 1, and time.Duration values in seconds. A name ending in
// _total is typed a counter, any other a gauge. Untagged struct fields are
// walked recursively, except one whose Enabled field is false (a subsystem
// the engine runs without); fields tagged "-" are skipped. The tags are
// the one declaration of each series name.
func WriteStats(w io.Writer, v any) {
	writeStruct(w, reflect.ValueOf(v))
}

var durationType = reflect.TypeOf(time.Duration(0))

func writeStruct(w io.Writer, v reflect.Value) {
	if on := v.FieldByName("Enabled"); on.IsValid() && !on.Bool() {
		return
	}
	for i := 0; i < v.NumField(); i++ {
		f, fv := v.Type().Field(i), v.Field(i)
		name := f.Tag.Get("metric")
		if name == "-" {
			continue
		}
		if name == "" {
			if fv.Kind() == reflect.Struct {
				writeStruct(w, fv)
			}
			continue
		}
		var val string
		switch {
		case f.Type == durationType:
			val = fmtFloat(time.Duration(fv.Int()).Seconds())
		case fv.CanInt():
			val = strconv.FormatInt(fv.Int(), 10)
		case fv.CanUint():
			val = strconv.FormatUint(fv.Uint(), 10)
		case fv.Kind() == reflect.Bool && fv.Bool():
			val = "1"
		case fv.Kind() == reflect.Bool:
			val = "0"
		default:
			panic(fmt.Sprintf("obs: metric %s has unsupported type %s", name, f.Type))
		}
		writeSample(w, name, val)
	}
}

// WritePrometheus renders every registered histogram as a proper
// Prometheus histogram family (`_bucket`/`_sum`/`_count` with cumulative
// buckets and a `+Inf` edge), every duty meter as counter/gauge series,
// and the trace ring's capture counters. Histograms with unit "seconds"
// scale their nanosecond values by 1e-9 so `le` edges are in seconds,
// per Prometheus convention.
func (r *Registry) WritePrometheus(w io.Writer) {
	if r == nil {
		return
	}
	typed := make(map[string]bool)
	for _, h := range r.Histograms() {
		if !typed[h.name] {
			typed[h.name] = true
			if h.help != "" {
				fmt.Fprintf(w, "# HELP %s %s\n", h.name, h.help)
			}
			fmt.Fprintf(w, "# TYPE %s histogram\n", h.name)
		}
		WriteHistSeries(w, h.name, h.labels, h.Snapshot())
	}

	if duties := r.Duties(); len(duties) > 0 {
		family := func(name string, val func(DutySnapshot) string) {
			writeType(w, name)
			for _, d := range duties {
				s := d.Snapshot()
				fmt.Fprintf(w, "%s{subsystem=%q} %s\n", name, s.Name, val(s))
			}
		}
		family("mainline_duty_busy_seconds_total", func(s DutySnapshot) string { return fmtFloat(s.Busy.Seconds()) })
		family("mainline_duty_runs_total", func(s DutySnapshot) string { return strconv.FormatInt(s.Runs, 10) })
		family("mainline_duty_fraction", func(s DutySnapshot) string { return fmtFloat(s.Fraction) })
	}

	if ring := r.Ring(); ring != nil {
		writeSample(w, "mainline_slow_ops_captured_total", strconv.FormatInt(ring.Captured(), 10))
		writeSample(w, "mainline_slow_op_threshold_seconds", fmtFloat(ring.Threshold().Seconds()))
	}
}

// writeType declares name a counter when it ends in _total, else a gauge.
func writeType(w io.Writer, name string) {
	typ := "gauge"
	if strings.HasSuffix(name, "_total") {
		typ = "counter"
	}
	fmt.Fprintf(w, "# TYPE %s %s\n", name, typ)
}

// writeSample writes one unlabelled sample with its # TYPE line.
func writeSample(w io.Writer, name, val string) {
	writeType(w, name)
	fmt.Fprintf(w, "%s %s\n", name, val)
}

// WriteHistSeries writes one histogram series set (`_bucket`, `_sum`,
// `_count`) for snapshot s. labels is the preformatted extra label list
// (without braces) shared by all three, or empty. Only buckets that
// change the cumulative count are emitted, plus the mandatory +Inf
// edge, so a quiet histogram costs three lines.
func WriteHistSeries(w io.Writer, name, labels string, s HistSnapshot) {
	scale := 1.0
	if s.Unit == "seconds" {
		scale = 1e-9
	}
	lp := ""
	if labels != "" {
		lp = labels + ","
	}
	var cum int64
	for i, c := range s.Counts {
		if c == 0 {
			continue
		}
		cum += c
		fmt.Fprintf(w, "%s_bucket{%sle=\"%s\"} %d\n",
			name, lp, fmtFloat(float64(BucketUpper(i))*scale), cum)
	}
	fmt.Fprintf(w, "%s_bucket{%sle=\"+Inf\"} %d\n", name, lp, s.Count)
	suffix := ""
	if labels != "" {
		suffix = "{" + labels + "}"
	}
	fmt.Fprintf(w, "%s_sum%s %s\n", name, suffix, fmtFloat(float64(s.Sum)*scale))
	fmt.Fprintf(w, "%s_count%s %d\n", name, suffix, s.Count)
}

func fmtFloat(v float64) string {
	return strconv.FormatFloat(v, 'g', -1, 64)
}
