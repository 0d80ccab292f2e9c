package eval

import (
	"testing"

	"dvm/internal/bytecode"
)

// TestPoisonedArena reruns the tests that pin the pipeline's bytes — the
// golden artifacts, the digest invariant, the shared pipeline under two
// goroutines — with ClassFile.Release poisoning the arena it recycles.
// Anything that outlived its class (an output aliasing arena bytes, an
// editor or instruction list remembered by a filter, a pipeline or a note)
// then reads as garbage and shows up as a wrong digest here, instead of as
// a rare wrong artifact in a fleet.
func TestPoisonedArena(t *testing.T) {
	defer bytecode.PoisonOnReset(bytecode.PoisonOnReset(true))
	t.Run("PipelineGoldenArtifacts", TestPipelineGoldenArtifacts)
	t.Run("ServicePipelineDigestInvariant", TestServicePipelineDigestInvariant)
	t.Run("SharedPipelineTwoGoroutines", TestSharedPipelineTwoGoroutines)
}
