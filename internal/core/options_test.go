package core

import "testing"

func TestOptionsDefaults(t *testing.T) {
	o := Options{}.withDefaults()
	if o.Alpha != 0.10 || o.MaxSpan != 10 || o.TopM != 50 {
		t.Fatalf("defaults = %+v", o)
	}
	if o := (Options{MaxSpan: -1}).withDefaults(); o.MaxSpan != 10 {
		t.Fatalf("MaxSpan=-1 should map to the default 10, got %d", o.MaxSpan)
	}
	noPrune := Options{TopM: -1}.withDefaults()
	if noPrune.TopM != 0 {
		t.Fatalf("TopM=-1 should map to 0 (keep all), got %d", noPrune.TopM)
	}
}
