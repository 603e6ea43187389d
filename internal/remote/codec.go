// Package remote moves analysis work between dp-serve nodes: a Client
// submits encoded modules (ir.Encode, the one module serialisation) to peer
// workers over the dp-serve HTTP API with health tracking and failover, and
// Stage plugs the whole exchange into the local pipeline as one
// pipeline.Stage — the first step from a single analysis process to a
// fleet.
package remote

import "discopop/internal/ir"

// The codec lives in internal/ir. These forwards remain only for bench/,
// which the next [benchmark] PR switches to the ir names (ROADMAP).

// Encode forwards to ir.Encode.
func Encode(m *ir.Module) ([]byte, error) { return ir.Encode(m) }

// Decode forwards to ir.Decode.
func Decode(data []byte) (*ir.Module, error) { return ir.Decode(data) }
