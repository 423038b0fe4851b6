package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"net/http"

	"mpq/internal/selection"
	"mpq/internal/serve"
)

// The JSON protocol of cmd/mpqserve, mirrored field for field: requests
// are encoded from ops, and reference answers are encoded exactly as
// the server writes them (json.Encoder, trailing newline), so an HTTP
// body and its in-process reference compare byte for byte.

type workloadJS struct {
	Tables int    `json:"tables"`
	Params int    `json:"params"`
	Shape  string `json:"shape"`
	Seed   int64  `json:"seed"`
}

type prepareReqJS struct {
	Workload   *workloadJS `json:"workload"`
	DeadlineMs int64       `json:"deadline_ms,omitempty"`
}

// prepareRespJS omits duration_ms, the one field that is a timing.
type prepareRespJS struct {
	Key        string  `json:"key"`
	Plans      int     `json:"plans"`
	Cached     bool    `json:"cached"`
	Epsilon    float64 `json:"epsilon"`
	Generation int     `json:"generation"`
	Final      bool    `json:"final"`
}

type boundJS struct {
	Metric int     `json:"metric"`
	Max    float64 `json:"max"`
}

type pickReqJS struct {
	Key      string      `json:"key"`
	Point    []float64   `json:"point,omitempty"`
	Points   [][]float64 `json:"points,omitempty"`
	Policy   string      `json:"policy"`
	Weights  []float64   `json:"weights,omitempty"`
	Minimize int         `json:"minimize,omitempty"`
	Bounds   []boundJS   `json:"bounds,omitempty"`
	Order    []int       `json:"order,omitempty"`
}

type choiceJS struct {
	Plan string    `json:"plan"`
	Cost []float64 `json:"cost"`
}

type pickRespJS struct {
	Metrics    []string   `json:"metrics"`
	Choices    []choiceJS `json:"choices"`
	Epsilon    float64    `json:"epsilon"`
	Generation int        `json:"generation"`
	Final      bool       `json:"final"`
}

type pickBatchRespJS struct {
	Metrics    []string     `json:"metrics"`
	Choices    [][]choiceJS `json:"choices"`
	Epsilon    float64      `json:"epsilon"`
	Generation int          `json:"generation"`
	Final      bool         `json:"final"`
}

type errorJS struct {
	Error string `json:"error"`
}

func prepareBody(t tmpl, deadlineMs int64) []byte {
	return mustJSON(prepareReqJS{
		Workload:   &workloadJS{Tables: t.Tables, Params: t.Params, Shape: t.Shape, Seed: t.Seed},
		DeadlineMs: deadlineMs,
	})
}

func pickBody(key string, o op) []byte {
	r := pickReqJS{Key: key, Policy: o.Policy, Weights: o.Weights, Minimize: o.Minimize, Order: o.Order}
	for _, b := range o.Bounds {
		r.Bounds = append(r.Bounds, boundJS{Metric: b.Metric, Max: b.Max})
	}
	if o.Kind == opBatch {
		for _, x := range o.Points {
			r.Points = append(r.Points, x)
		}
	} else {
		r.Point = o.Points[0]
	}
	return mustJSON(r)
}

func mustJSON(v any) []byte {
	b, err := json.Marshal(v)
	if err != nil {
		panic(err) // only plain structs of numbers and strings are encoded
	}
	return b
}

// encode writes v the way the server does.
func encode(v any) []byte {
	var buf bytes.Buffer
	if err := json.NewEncoder(&buf).Encode(v); err != nil {
		panic(err)
	}
	return buf.Bytes()
}

func choicesJS(cs []selection.Choice) []choiceJS {
	out := []choiceJS{}
	for _, c := range cs {
		out = append(out, choiceJS{Plan: c.Plan.String(), Cost: c.Cost})
	}
	return out
}

// answer is one request's outcome: HTTP status and body.
type answer struct {
	Status int
	Body   []byte
}

// pickAnswer encodes an in-process Pick result as the server's answer.
func pickAnswer(res serve.PickResult, err error) answer {
	if err != nil {
		return errAnswer(err)
	}
	return answer{http.StatusOK, encode(pickRespJS{Metrics: res.Metrics, Choices: choicesJS(res.Choices),
		Epsilon: res.Epsilon, Generation: res.Generation, Final: res.Final})}
}

// batchAnswer encodes an in-process PickBatch result as the server's answer.
func batchAnswer(res serve.PickBatchResult, err error) answer {
	if err != nil {
		return errAnswer(err)
	}
	out := pickBatchRespJS{Metrics: res.Metrics, Choices: [][]choiceJS{},
		Epsilon: res.Epsilon, Generation: res.Generation, Final: res.Final}
	for _, cs := range res.Choices {
		out.Choices = append(out.Choices, choicesJS(cs))
	}
	return answer{http.StatusOK, encode(out)}
}

// prepareAnswer encodes an in-process Prepare result without its timing.
func prepareAnswer(res serve.PrepareResult, err error) answer {
	if err != nil {
		return errAnswer(err)
	}
	return answer{http.StatusOK, encode(prepareRespJS{Key: res.Key, Plans: res.NumPlans, Cached: res.Cached,
		Epsilon: res.Epsilon, Generation: res.Generation, Final: res.Final})}
}

// canonicalPrepare re-encodes an HTTP /prepare body without its timing,
// into memory of its own.
func canonicalPrepare(a answer) answer {
	var r prepareRespJS
	if a.Status != http.StatusOK || json.Unmarshal(a.Body, &r) != nil {
		return answer{a.Status, bytes.Clone(a.Body)}
	}
	return answer{a.Status, encode(r)}
}

func errAnswer(err error) answer {
	return answer{statusOf(err), encode(errorJS{Error: err.Error()})}
}

// statusOf mirrors the server's error-to-status mapping.
func statusOf(err error) int {
	switch {
	case errors.Is(err, serve.ErrQueueFull):
		return http.StatusTooManyRequests
	case errors.Is(err, serve.ErrServerClosed):
		return http.StatusServiceUnavailable
	case errors.Is(err, serve.ErrUnknownPlanSet):
		return http.StatusNotFound
	case errors.Is(err, selection.ErrNoFeasiblePlan):
		return http.StatusUnprocessableEntity
	case errors.Is(err, serve.ErrInternal):
		return http.StatusInternalServerError
	case errors.Is(err, context.DeadlineExceeded):
		return http.StatusGatewayTimeout
	case errors.Is(err, context.Canceled):
		return http.StatusRequestTimeout
	}
	return http.StatusBadRequest
}
