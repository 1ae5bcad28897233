package client

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"strconv"

	"github.com/wsdetect/waldo/internal/core"
	"github.com/wsdetect/waldo/internal/rfenv"
	"github.com/wsdetect/waldo/internal/sensor"
)

// errRearm is the watch handler's answer to a 304: the server's horizon
// expired with no news, which is the steady idle state, not a failure.
var errRearm = errors.New("client: watch horizon expired")

// WatchModel replaces the poll loop: it parks a long-poll on
// GET /v1/model/watch naming the cached descriptor by its ETag (and its
// version, for servers that predate validators) and returns only when
// the server pushes another model (which is decoded, cached, and
// returned with its transferred byte count). Server-side watch horizons
// (304) re-arm transparently, so a single call can wait across many
// horizons; cancel ctx to stop waiting. An idle watch costs the device
// one parked connection and the server approximately nothing.
//
// Each park is one exchange like any other (retries, backoff, breaker,
// a trace per attempt), except that no per-attempt timeout applies — a
// park outliving that budget is the point, so ctx is the only leash.
// Every re-arm is a new exchange with a full retry budget, so the budget
// bounds *consecutive* failures: a flaky link degrades to slow delivery
// instead of a dead watcher.
func (c *Client) WatchModel(ctx context.Context, ch rfenv.Channel, kind sensor.Kind) (*core.Model, int, error) {
	var (
		model *core.Model
		n     int
	)
	for {
		err := c.do(ctx, "watch model", c.watchc, 0,
			func(actx context.Context) (*http.Request, error) {
				c.mu.Lock()
				held := c.cache[cacheKey{ch, kind}]
				c.mu.Unlock()
				since, _ := strconv.Atoi(held.version) // nothing cached: 0
				url := fmt.Sprintf("%s/v1/model/watch?channel=%d&sensor=%d&version=%d%s",
					c.baseURL, int(ch), int(kind), since, c.hintQuery())
				req, err := http.NewRequestWithContext(actx, http.MethodGet, url, nil)
				if err == nil && held.etag != "" {
					req.Header.Set("If-None-Match", held.etag)
				}
				return req, err
			},
			func(resp *http.Response) (err error) {
				switch resp.StatusCode {
				case http.StatusOK:
					model, n, err = c.install(cacheKey{ch, kind}, resp)
					return err
				case http.StatusNotModified:
					return errRearm
				}
				return rejected("watch model", resp)
			})
		if err == errRearm {
			c.watchRearms.Inc()
			continue
		}
		if err != nil {
			return nil, 0, err
		}
		c.watchDelivered.Inc()
		return model, n, nil
	}
}
