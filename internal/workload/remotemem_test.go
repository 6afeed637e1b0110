package workload

import (
	"bytes"
	"testing"

	"astrasim/internal/compute"
)

// The placement token on the update-time line must survive a parse/write
// round trip and reject junk naming the layer.
func TestPlacementFileRoundTrip(t *testing.T) {
	def := sampleDef()
	def.Layers = append([]Layer(nil), def.Layers...)
	def.Layers[0].Placement = compute.PlaceRemote
	def.Layers[1].Placement = compute.PlaceInterleaved
	var buf bytes.Buffer
	if err := Write(&buf, def); err != nil {
		t.Fatal(err)
	}
	back, err := Parse("roundtrip", &buf)
	if err != nil {
		t.Fatal(err)
	}
	for i := range def.Layers {
		if back.Layers[i].Placement != def.Layers[i].Placement {
			t.Errorf("layer %d placement %v, want %v", i, back.Layers[i].Placement, def.Layers[i].Placement)
		}
	}
}
