package core

import (
	"testing"
)

func TestConfigValidateTrainEnvPerRA(t *testing.T) {
	cfg := DefaultConfig() // 2 RAs
	env := cfg.EnvTemplate
	cfg.TrainEnvPerRA = append(cfg.TrainEnvPerRA, &env) // 1 entry, want 2
	if err := cfg.Validate(); err == nil {
		t.Error("Validate accepted TrainEnvPerRA with wrong length")
	}
}
