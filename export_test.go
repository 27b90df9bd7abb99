package clap

import "testing"

// PipelineTestBackend hands the package tests' shared tiny trained
// backend to the external test package.
func PipelineTestBackend(t *testing.T) Backend { return pipelineBackend(t) }
