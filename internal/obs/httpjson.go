package obs

import (
	"encoding/json"
	"net/http"
)

// WriteJSON sends v as a 200 application/json body, newline-terminated.
// The body is marshalled before any header or status reaches the wire,
// so an encode failure can still become a 500 JSON error; once
// WriteHeader has fired that is impossible. stamp, when non-nil, sees
// the final body first and may add headers derived from it (the tile
// server's checksum header).
func WriteJSON(w http.ResponseWriter, v any, stamp func(h http.Header, body []byte)) {
	writeJSON(w, http.StatusOK, v, stamp)
}

// WriteJSONError sends {"error": msg} with the given status, so clients
// can tell structured failures from payloads. The trace ID already
// stamped on the response header is repeated in the body as
// "trace_id", so a client that dropped the headers still has the join
// key for a support report.
func WriteJSONError(w http.ResponseWriter, status int, msg string) {
	writeJSON(w, status, errorBody{Error: msg, TraceID: w.Header().Get(TraceHeader)}, nil)
}

// errorBody is the one JSON error shape every serving handler answers.
// Marshalling it cannot fail (invalid UTF-8 is replaced, not refused),
// so the error path has no error path of its own.
type errorBody struct {
	Error   string `json:"error"`
	TraceID string `json:"trace_id,omitempty"`
}

func writeJSON(w http.ResponseWriter, status int, v any, stamp func(http.Header, []byte)) {
	data, err := json.Marshal(v)
	if err != nil {
		WriteJSONError(w, http.StatusInternalServerError, err.Error())
		return
	}
	data = append(data, '\n')
	w.Header().Set("Content-Type", "application/json")
	if stamp != nil {
		stamp(w.Header(), data)
	}
	w.WriteHeader(status)
	_, _ = w.Write(data)
}
