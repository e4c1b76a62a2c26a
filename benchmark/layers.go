package main

import (
	_ "embed"
	"encoding/json"
)

// layerMetric describes one per-layer metric: where its number comes
// from and the prediction a later change can cite — which end-to-end
// metric it should move, on which workloads most, and on which little
// or not at all.
type layerMetric struct {
	Name   string `json:"name"`
	Unit   string `json:"unit"`
	Better string `json:"better"` // "lower" | "higher"
	// Source: "count" is returned by the engine (stats.Run, or the stats
	// block of a delivered report) and repeats exactly for a seed; "span"
	// is measured by the traced run around a call into the layer; "probe"
	// is a fixed-count driver of the layer's public API.
	Source string `json:"source"`
	Moves  string `json:"moves"`
	On     string `json:"on"`
	NotOn  string `json:"not_on"`
}

// layers.json is the per-layer catalogue. BENCHMARK.json's per_layer
// lists the same metrics in the same order with name, unit and direction
// only — its schema admits nothing else — and a test holds the two
// together.
//
//go:embed layers.json
var layersJSON []byte

var layerMetrics = func() []layerMetric {
	var ms []layerMetric
	if err := json.Unmarshal(layersJSON, &ms); err != nil {
		panic("benchmark: layers.json: " + err.Error())
	}
	return ms
}()
