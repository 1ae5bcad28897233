package client

import (
	"context"
	"testing"

	"github.com/wsdetect/waldo/internal/geo"
	"github.com/wsdetect/waldo/internal/rfenv"
)

func TestAvailabilityQuery(t *testing.T) {
	w := newTestWorld(t, []rfenv.Channel{47})

	av, err := w.client.Availability(context.Background(), AvailabilityQuery{Loc: rfenv.MetroCenter})
	if err != nil {
		t.Fatal(err)
	}
	if av.Generation == 0 {
		t.Error("bootstrapped server answered generation 0")
	}
	if len(av.Channels) == 0 {
		t.Fatal("no verdicts in the campaign's center cell")
	}
	for _, e := range av.Channels {
		if e.Channel != 47 {
			t.Errorf("verdict for channel %d from a ch47-only campaign", e.Channel)
		}
		if e.Status == "" || e.Confidence < 0 || e.Confidence > 1 {
			t.Errorf("malformed verdict %+v", e)
		}
	}

	// A channel filter that excludes the surveyed channel empties the
	// answer without erroring.
	av, err = w.client.Availability(context.Background(), AvailabilityQuery{Loc: rfenv.MetroCenter, Channels: []rfenv.Channel{46}})
	if err != nil {
		t.Fatal(err)
	}
	if len(av.Channels) != 0 {
		t.Errorf("channels=46 filter returned %d verdicts", len(av.Channels))
	}

	// Client-side validation fails fast, before any request.
	if _, err := w.client.Availability(context.Background(), AvailabilityQuery{Loc: geo.Point{Lat: 91}}); err == nil {
		t.Error("invalid location must fail")
	}
}

func TestPlanRoute(t *testing.T) {
	w := newTestWorld(t, []rfenv.Channel{47})

	points := []geo.Point{
		rfenv.MetroCenter.Offset(270, 5000),
		rfenv.MetroCenter.Offset(90, 5000),
	}
	route, err := w.client.PlanRoute(context.Background(), points, RouteOptions{StepM: 500})
	if err != nil {
		t.Fatal(err)
	}
	if len(route.Segments) < 2 {
		t.Fatalf("10 km route produced %d segments", len(route.Segments))
	}
	if route.TotalM < 8000 || route.ConfidenceDecay != 1 {
		t.Errorf("total_m=%v decay=%v", route.TotalM, route.ConfidenceDecay)
	}
	answered := 0
	for _, seg := range route.Segments {
		answered += len(seg.Channels)
	}
	if answered == 0 {
		t.Error("route across the surveyed metro saw no verdicts")
	}

	// A horizon discounts confidence multiplicatively.
	decayed, err := w.client.PlanRoute(context.Background(), points, RouteOptions{StepM: 500, HorizonS: 1800})
	if err != nil {
		t.Fatal(err)
	}
	if decayed.ConfidenceDecay <= 0 || decayed.ConfidenceDecay >= 1 {
		t.Errorf("decay = %v, want in (0,1)", decayed.ConfidenceDecay)
	}

	// Client-side validation fails fast.
	if _, err := w.client.PlanRoute(context.Background(), nil, RouteOptions{}); err == nil {
		t.Error("empty polyline must fail")
	}
	if _, err := w.client.PlanRoute(context.Background(), []geo.Point{{Lat: 91}}, RouteOptions{}); err == nil {
		t.Error("invalid waypoint must fail")
	}
}
