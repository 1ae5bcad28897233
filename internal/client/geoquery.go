package client

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/url"
	"strconv"
	"strings"

	"github.com/wsdetect/waldo/internal/dbserver"
	"github.com/wsdetect/waldo/internal/geo"
	"github.com/wsdetect/waldo/internal/rfenv"
	"github.com/wsdetect/waldo/internal/sensor"
)

// The spatiotemporal query surface (DESIGN.md §15): instead of
// downloading a model and classifying locally, a device — or a route
// planner with no radio at all — asks the database's precomputed
// availability grid. Both calls go through the same retry/breaker
// machinery as every other exchange, and both work identically against
// a single dbserver and a cluster gateway (which merges across shards).

// AvailabilityQuery selects what GET /v1/availability should answer:
// the cell containing Loc, optionally narrowed to specific channels
// and/or one sensor family.
type AvailabilityQuery struct {
	// Loc is the point of interest; the server answers for the geo-cell
	// containing it.
	Loc geo.Point
	// Channels, when non-empty, restricts verdicts to these channels. A
	// single-channel filter also lets a cluster gateway forward the query
	// straight to the owning shard instead of fanning out.
	Channels []rfenv.Channel
	// Sensor, when non-zero, restricts verdicts to one sensor family.
	Sensor sensor.Kind
}

// Availability fetches the availability grid's channel verdicts for
// the cell containing q.Loc, retrying transient failures. An unsurveyed
// cell is a successful answer with an empty Channels slice, not an
// error — "unknown" is a verdict a caller must be able to act on.
func (c *Client) Availability(ctx context.Context, q AvailabilityQuery) (dbserver.AvailabilityJSON, error) {
	if !q.Loc.Valid() {
		return dbserver.AvailabilityJSON{}, fmt.Errorf("client: availability: invalid location %v", q.Loc)
	}
	vals := url.Values{}
	vals.Set("lat", strconv.FormatFloat(q.Loc.Lat, 'f', -1, 64))
	vals.Set("lon", strconv.FormatFloat(q.Loc.Lon, 'f', -1, 64))
	if len(q.Channels) > 0 {
		parts := make([]string, len(q.Channels))
		for i, ch := range q.Channels {
			parts[i] = strconv.Itoa(int(ch))
		}
		vals.Set("channels", strings.Join(parts, ","))
	}
	if q.Sensor != 0 {
		vals.Set("sensor", strconv.Itoa(int(q.Sensor)))
	}
	var out dbserver.AvailabilityJSON
	err := c.do(ctx, "availability", c.httpc, c.timeout,
		func(actx context.Context) (*http.Request, error) {
			return http.NewRequestWithContext(actx, http.MethodGet,
				c.base()+"/v1/availability?"+vals.Encode(), nil)
		},
		func(resp *http.Response) error {
			if resp.StatusCode != http.StatusOK {
				return rejected("availability", resp)
			}
			return json.NewDecoder(resp.Body).Decode(&out)
		})
	if err != nil {
		return dbserver.AvailabilityJSON{}, err
	}
	return out, nil
}

// RouteOptions tunes a PlanRoute call; the zero value asks for the
// server defaults (no horizon discount, default sampling step, all
// channels and sensors).
type RouteOptions struct {
	// HorizonS asks "will this still hold in HorizonS seconds?"; the
	// server discounts every confidence by exp(-horizon/τ).
	HorizonS float64
	// StepM is the trajectory sampling interval in meters (0: server
	// default).
	StepM float64
	// Channels, when non-empty, restricts verdicts to these channels.
	Channels []rfenv.Channel
	// Sensor, when non-zero, restricts verdicts to one sensor family.
	Sensor sensor.Kind
}

// PlanRoute asks the database for per-segment free-channel verdicts
// along a polyline of waypoints, retrying transient failures. The
// answer partitions the route into cell-constant segments, each with
// the availability grid's verdicts for that cell, confidence already
// discounted for opts.HorizonS.
func (c *Client) PlanRoute(ctx context.Context, points []geo.Point, opts RouteOptions) (dbserver.RouteJSON, error) {
	if len(points) == 0 {
		return dbserver.RouteJSON{}, fmt.Errorf("client: route: no waypoints")
	}
	req := dbserver.RouteRequestJSON{
		HorizonS: opts.HorizonS,
		StepM:    opts.StepM,
		Sensor:   int(opts.Sensor),
	}
	for i, p := range points {
		if !p.Valid() {
			return dbserver.RouteJSON{}, fmt.Errorf("client: route: waypoint %d: invalid location %v", i, p)
		}
		req.Points = append(req.Points, dbserver.RoutePointJSON{Lat: p.Lat, Lon: p.Lon})
	}
	for _, ch := range opts.Channels {
		req.Channels = append(req.Channels, int(ch))
	}
	body, err := json.Marshal(req)
	if err != nil {
		return dbserver.RouteJSON{}, fmt.Errorf("client: route: marshal: %w", err)
	}
	var out dbserver.RouteJSON
	err = c.do(ctx, "route", c.httpc, c.timeout,
		func(actx context.Context) (*http.Request, error) {
			hreq, err := http.NewRequestWithContext(actx, http.MethodPost,
				c.base()+"/v1/route", bytes.NewReader(body))
			if err != nil {
				return nil, err
			}
			hreq.Header.Set("Content-Type", "application/json")
			return hreq, nil
		},
		func(resp *http.Response) error {
			if resp.StatusCode != http.StatusOK {
				return rejected("route", resp)
			}
			return json.NewDecoder(resp.Body).Decode(&out)
		})
	if err != nil {
		return dbserver.RouteJSON{}, err
	}
	return out, nil
}
