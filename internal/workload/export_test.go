package workload

// SampleDef exposes the two-layer data-parallel fixture to the external
// test package.
var SampleDef = sampleDef
