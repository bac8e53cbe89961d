package main

// fig5Paper is Fig. 5 of the source paper: the mean response time of
// each system relative to the Baseline (temporal multiplexing of the
// whole fabric), per congestion condition; higher is better.
//
// Source: "VersaSlot: Efficient Fine-grained FPGA Sharing with
// Big.Little Slots and Live Migration in FPGA Cluster", DAC 2025,
// Fig. 5, "Relative response time reduction under different congestion
// conditions, normalized to the baseline".
//
// The simulator's timing constants were calibrated against this table,
// so the error against it is a calibration error, not a validation on
// held-out data.
var fig5Paper = map[string]map[string]float64{
	"loose":     {"fcfs": 0.81, "rr": 0.79, "nimblock": 1.06, "versaslot-ol": 1.08, "versaslot-bl": 1.49},
	"standard":  {"fcfs": 1.57, "rr": 1.80, "nimblock": 6.23, "versaslot-ol": 8.39, "versaslot-bl": 13.66},
	"stress":    {"fcfs": 1.47, "rr": 1.47, "nimblock": 3.04, "versaslot-ol": 4.13, "versaslot-bl": 5.23},
	"real-time": {"fcfs": 1.45, "rr": 1.46, "nimblock": 2.91, "versaslot-ol": 3.84, "versaslot-bl": 4.76},
}

// gridPolicies are the systems of Fig. 5 in the paper's order; the
// first is the normalization reference.
var gridPolicies = []string{"baseline", "fcfs", "rr", "nimblock", "versaslot-ol", "versaslot-bl"}
