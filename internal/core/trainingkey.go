package core

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"reflect"
	"strconv"

	"edgeslice/internal/ckpt"
	"edgeslice/internal/netsim"
	"edgeslice/internal/rl/offpolicy"
)

// trainingInputs is everything System.Train reads of its config, so that
// TrainingKey hashes exactly what a trained agent is a function of.
type trainingInputs struct {
	Env   netsim.Config
	DDPG  offpolicy.Config
	Steps int
}

// trainingInputs completes the DDPG config as Train trains it: always
// DDPG, seeded from the base seed.
func (c Config) trainingInputs() trainingInputs {
	ddpg := c.DDPG
	ddpg.Technique, ddpg.Seed = offpolicy.DDPG, c.Seed
	return trainingInputs{Env: c.trainingEnv(), DDPG: ddpg, Steps: c.TrainSteps}
}

// TrainingKey returns the checkpoint-store key (ckpt.Key) of the agent
// System.Train trains from cfg. Its hash covers exactly Train's inputs:
// the training environment, the DDPG config and the step budget. The RA
// count, the SLA vector and ρ are not among them, so configs that differ
// only there share a key, as they train bitwise identical agents.
func TrainingKey(cfg Config) (string, error) {
	hash, err := trainingHash(cfg)
	if err != nil {
		return "", err
	}
	return ckpt.Key(cfg.Algo.String(), hash, cfg.Seed, cfg.TrainSteps), nil
}

// trainingHash is the hex SHA-256 of cfg's training inputs, which a
// snapshot's header records as its config hash.
func trainingHash(cfg Config) (string, error) {
	if err := cfg.Validate(); err != nil {
		return "", err
	}
	b, err := appendValue(nil, reflect.ValueOf(cfg.trainingInputs()))
	if err != nil {
		return "", fmt.Errorf("core: training key: %w", err)
	}
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:]), nil
}

// appendValue appends a canonical encoding of v to b: type names tag every
// struct, interface and pointer so distinct shapes never collide, and
// floats use the exact shortest round-trip form. Maps (unordered), channels
// and funcs are rejected: the inputs must be plain, ordered data.
func appendValue(b []byte, v reflect.Value) ([]byte, error) {
	var err error
	switch v.Kind() {
	case reflect.Ptr, reflect.Interface:
		if v.IsNil() {
			return append(b, "nil|"...), nil
		}
		b = append(append(b, v.Elem().Type().String()...), '{')
		if b, err = appendValue(b, v.Elem()); err != nil {
			return b, err
		}
		return append(b, "}|"...), nil
	case reflect.Struct:
		t := v.Type()
		b = append(append(b, t.String()...), '{')
		for i := 0; i < t.NumField(); i++ {
			b = append(append(b, t.Field(i).Name...), ':')
			if b, err = appendValue(b, v.Field(i)); err != nil {
				return b, err
			}
		}
		return append(b, "}|"...), nil
	case reflect.Slice, reflect.Array:
		b = append(strconv.AppendInt(append(b, '['), int64(v.Len()), 10), '|')
		for i := 0; i < v.Len(); i++ {
			if b, err = appendValue(b, v.Index(i)); err != nil {
				return b, err
			}
		}
		return append(b, "]|"...), nil
	case reflect.Float32, reflect.Float64:
		return append(strconv.AppendFloat(b, v.Float(), 'g', -1, 64), '|'), nil
	case reflect.Bool:
		return append(strconv.AppendBool(b, v.Bool()), '|'), nil
	case reflect.String:
		return append(strconv.AppendQuote(b, v.String()), '|'), nil
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		return append(strconv.AppendInt(b, v.Int(), 10), '|'), nil
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64:
		return append(strconv.AppendUint(b, v.Uint(), 10), '|'), nil
	default:
		return b, fmt.Errorf("cannot hash a %s value", v.Kind())
	}
}
