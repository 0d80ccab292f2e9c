package telemetry

import (
	"fmt"
	"reflect"
	"strings"
)

// A subsystem declares its metrics once, as a struct whose fields are the
// handles its code increments, each tagged with its Prometheus name:
//
//	type metrics struct {
//		Requests *telemetry.Counter   `metric:"requests_total"`
//		Latency  *telemetry.Histogram `metric:"request_seconds"`
//	}
//
// Registry.Declare fills the fields at construction; the request path
// then touches only the registry's own *Counter and *Histogram objects,
// exactly as if it had looked each one up by hand. Add reads the same
// declaration into a snapshot struct (Stats) by field name, so a counter
// is named in one place and summed or reported without restating it.

var (
	counterType   = reflect.TypeOf((*Counter)(nil))
	histogramType = reflect.TypeOf((*Histogram)(nil))
)

// Declare registers every metric of the declaration metrics points to and
// sets each field to the registry's handle for it (get-or-create, like
// Counter and Histogram; a histogram gets defaultLatencyBounds). Every
// field must be an exported *Counter or *Histogram whose `metric` tag is
// its name; anything else is a programming error and panics at
// construction, never on a request.
func (r *Registry) Declare(metrics any) {
	v := reflect.ValueOf(metrics).Elem()
	t := v.Type()
	for i := 0; i < t.NumField(); i++ {
		f := t.Field(i)
		name := f.Tag.Get("metric")
		if name == "" || strings.Contains(name, ",") || !f.IsExported() {
			panic(fmt.Sprintf("telemetry: %s.%s: bad metric declaration %q", t, f.Name, name))
		}
		switch f.Type {
		case counterType:
			v.Field(i).Set(reflect.ValueOf(r.Counter(name)))
		case histogramType:
			v.Field(i).Set(reflect.ValueOf(r.Histogram(name, nil)))
		default:
			panic(fmt.Sprintf("telemetry: %s.%s: a metric is a *Counter or a *Histogram, not %s", t, f.Name, f.Type))
		}
	}
}

// Add adds the value of every counter and integer field of src — a
// declaration or a snapshot, by value or by pointer — to the integer
// field of the same name in the struct dst points to. Fields dst lacks
// are skipped, so a snapshot reports the counters it names and a group's
// snapshot is the sum of its members' with no list of fields to keep.
func Add(dst, src any) {
	d := reflect.ValueOf(dst).Elem()
	s := reflect.Indirect(reflect.ValueOf(src))
	for i := 0; i < s.NumField(); i++ {
		f := s.Type().Field(i)
		if !f.IsExported() {
			continue
		}
		var n int64
		switch fv := s.Field(i); {
		case f.Type == counterType:
			n = fv.Interface().(*Counter).Load()
		case fv.CanInt():
			n = fv.Int()
		default:
			continue
		}
		if to := d.FieldByName(f.Name); to.IsValid() && to.CanInt() {
			to.SetInt(to.Int() + n)
		}
	}
}
