package data

import (
	"fmt"
	"math"
	"reflect"
	"testing"
	"unsafe"
)

// TestValueIsPointerFree: a Value is a kind and one 8-byte payload, so
// row slabs are memory the garbage collector never scans.
func TestValueIsPointerFree(t *testing.T) {
	if n := unsafe.Sizeof(Value{}); n != 16 {
		t.Errorf("Value is %d bytes, want 16", n)
	}
	var walk func(reflect.Type)
	walk = func(ty reflect.Type) {
		switch ty.Kind() {
		case reflect.Pointer, reflect.UnsafePointer, reflect.String, reflect.Slice, reflect.Map,
			reflect.Chan, reflect.Func, reflect.Interface:
			t.Errorf("Value holds a pointer-bearing %s", ty)
		case reflect.Struct:
			for i := 0; i < ty.NumField(); i++ {
				walk(ty.Field(i).Type)
			}
		case reflect.Array:
			walk(ty.Elem())
		}
	}
	walk(reflect.TypeOf(Value{}))
}

func TestPayloadRoundTrips(t *testing.T) {
	for _, i := range []int64{0, -1, 1 << 53, math.MinInt64, math.MaxInt64} {
		if got := NewInt(i).Int(); got != i {
			t.Errorf("NewInt(%d).Int() = %d", i, got)
		}
	}
	for _, f := range []float64{0, math.Copysign(0, -1), 1.5, math.Inf(-1), math.MaxFloat64} {
		if got := NewFloat(f).Float(); math.Float64bits(got) != math.Float64bits(f) {
			t.Errorf("NewFloat(%g).Float() = %g", f, got)
		}
	}
	if !math.IsNaN(NewFloat(math.NaN()).Float()) {
		t.Error("NaN does not round-trip")
	}
}

func TestInternGivesEqualTextsEqualCodes(t *testing.T) {
	s := NewStrings()
	a, b, a2 := s.Intern("BRAZIL"), s.Intern("ALGERIA"), s.Intern("BRAZIL")
	if a != a2 || a == b || s.Len() != 2 {
		t.Fatalf("codes %v %v %v, len %d", a, b, a2, s.Len())
	}
	if !Equal(a, a2) || Equal(a, b) {
		t.Error("Equal must compare codes")
	}
	if c, err := Compare(s, a, b); err != nil || c != 1 {
		t.Errorf("Compare(BRAZIL, ALGERIA) = %d, %v; want text order", c, err)
	}
	if _, err := Compare(nil, a, b); err == nil {
		t.Error("ordering strings without their table must fail")
	}
	if v, ok := s.Lookup("ALGERIA"); !ok || v != b {
		t.Errorf("Lookup(ALGERIA) = %v, %v", v, ok)
	}
	if _, ok := s.Lookup("PERU"); ok {
		t.Error("Lookup of an absent text succeeded")
	}
	long := string(make([]byte, 100<<10)) // longer than any arena
	for i := 0; i < 3000; i++ {           // several arenas and index rebuilds
		text := fmt.Sprintf("s%d", i)
		if i == 1500 {
			text = long
		}
		if got := s.Text(s.Intern(text)); got != text {
			t.Fatalf("Text(Intern(%q)) = %q", text, got)
		}
	}
	n := s.Len()
	for i := 0; i < 3000; i++ {
		if _, ok := s.Lookup(fmt.Sprintf("s%d", i)); !ok && i != 1500 {
			t.Fatalf("Lookup(s%d) failed", i)
		}
	}
	if s.Intern(long); s.Len() != n {
		t.Errorf("re-interning grew the table from %d to %d", n, s.Len())
	}
	if v := s.Intern(""); s.Text(v) != "" {
		t.Error("empty text does not round-trip")
	}
}

// TestOverlayLeavesBaseUnchanged: an overlay reuses its base's codes for
// texts the base knows and codes the rest above the base's range.
func TestOverlayLeavesBaseUnchanged(t *testing.T) {
	base := NewStrings()
	asia := base.Intern("ASIA")
	ov := base.Overlay()
	if v := ov.Intern("ASIA"); v != asia {
		t.Errorf("overlay re-coded a base text: %v, base %v", v, asia)
	}
	mars := ov.Intern("MARS")
	if mars == asia || ov.Intern("MARS") != mars {
		t.Errorf("overlay code %v", mars)
	}
	if ov.Text(mars) != "MARS" || ov.Text(asia) != "ASIA" {
		t.Error("overlay does not resolve both ranges")
	}
	if base.Len() != 1 {
		t.Errorf("base grew to %d", base.Len())
	}
	if _, ok := base.Lookup("MARS"); ok {
		t.Error("overlay text leaked into the base")
	}
	if c, err := Compare(ov, mars, asia); err != nil || c != 1 {
		t.Errorf("Compare(MARS, ASIA) = %d, %v", c, err)
	}
}
