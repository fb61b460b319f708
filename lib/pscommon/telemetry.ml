(** Observability substrate: span tracer, metrics registry, leveled logger.

    Zero external dependencies and domain-safe by construction:
    {ul
    {- the {e tracer} writes into a ring buffer installed as an ambient,
       {e domain-local} context ([Domain.DLS]) — one ring per domain, reset
       per request, so its buffer needs no locking and parallel batch
       workers each record their own file without contention;}
    {- the {e metrics registry} is process-global and written from every
       pool domain concurrently, so every cell is an [Atomic] (float cells
       use a CAS loop) and registration takes a mutex;}
    {- the {e logger} level is an [Atomic] read on every call; emission
       takes a mutex so concurrent lines never interleave.}}

    The disabled fast path is one [Domain.DLS.get] plus an immediate
    comparison — no allocation — so instrumentation can stay in hot code
    unconditionally. *)

(* ---------- JSON helpers (local: pscommon depends on nothing) ---------- *)

let json_escape s =
  let buf = Buffer.create (String.length s + 8) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | '\r' -> Buffer.add_string buf "\\r"
      | '\t' -> Buffer.add_string buf "\\t"
      | c when Char.code c < 0x20 ->
          Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s;
  Buffer.contents buf

let json_string s = "\"" ^ json_escape s ^ "\""

(* JSON has no nan or infinity: a strict reader would refuse the line *)
let json_float f =
  if not (Float.is_finite f) then "null"
  else if Float.is_integer f && Float.abs f < 1e15 then
    Printf.sprintf "%.1f" f
  else Printf.sprintf "%.6g" f

(* ---------- attributes ---------- *)

type attr_value = S of string | I of int | F of float | B of bool
type attr = string * attr_value

let attr_value_to_json = function
  | S s -> json_string s
  | I n -> string_of_int n
  | F f -> json_float f
  | B b -> string_of_bool b

let attrs_to_json attrs =
  "{"
  ^ String.concat ", "
      (List.map (fun (k, v) -> json_string k ^ ": " ^ attr_value_to_json v) attrs)
  ^ "}"

(* ---------- leveled logger ---------- *)

module Log = struct
  type level = Error | Warn | Info | Debug

  let rank = function Error -> 0 | Warn -> 1 | Info -> 2 | Debug -> 3
  let label = function
    | Error -> "error" | Warn -> "warn" | Info -> "info" | Debug -> "debug"

  let of_string s =
    match String.lowercase_ascii (String.trim s) with
    | "error" -> Some Error
    | "warn" | "warning" -> Some Warn
    | "info" -> Some Info
    | "debug" -> Some Debug
    | _ -> None

  (* [None] = silent (the default); an Atomic so workers spawned after a
     CLI [--log-level] all observe it *)
  let current : level option Atomic.t = Atomic.make None
  let set_level l = Atomic.set current l
  let level () = Atomic.get current

  let enabled l =
    match Atomic.get current with
    | None -> false
    | Some threshold -> rank l <= rank threshold

  let emit_mutex = Mutex.create ()

  type format = Text | Json

  (* the output shape is process-wide, like the level: a daemon either
     feeds a log pipeline (JSONL) or a human (text), never both *)
  let current_format : format Atomic.t = Atomic.make Text
  let set_format f = Atomic.set current_format f
  let format () = Atomic.get current_format

  let format_of_string s =
    match String.lowercase_ascii (String.trim s) with
    | "text" -> Some Text
    | "json" | "jsonl" -> Some Json
    | _ -> None

  let log l msg =
    if enabled l then begin
      Mutex.lock emit_mutex;
      Fun.protect
        ~finally:(fun () -> Mutex.unlock emit_mutex)
        (fun () ->
          match Atomic.get current_format with
          | Text -> Printf.eprintf "[%s] %s\n%!" (label l) (msg ())
          | Json ->
              Printf.eprintf
                "{\"ts\": %.6f, \"level\": %s, \"domain\": %d, \"msg\": %s}\n%!"
                (Unix.gettimeofday ())
                (json_string (label l))
                (Domain.self () :> int)
                (json_string (msg ())))
    end

  let error msg = log Error msg
  let warn msg = log Warn msg
  let info msg = log Info msg
  let debug msg = log Debug msg
end

(* ---------- trace / request identifiers ---------- *)

(* Trace ids correlate one request's (or one batch file's) events across
   the trace file, the flight dump and the response protocol.  They are
   {e observation-only}: allocation draws from a process-global counter,
   never from the chaos stream or anything output-affecting, so ids vary
   across runs while outputs stay byte-identical. *)

let id_counter = Atomic.make 0

(* one process nonce so ids from different daemon instances never collide
   in a shared log pipeline.  Computed at module init: a [Lazy.force]
   racing between parallel batch domains raised [CamlinternalLazy.Undefined]
   and crashed the batch. *)
let id_nonce =
  (Unix.getpid () land 0xffff)
  lxor (int_of_float (Unix.gettimeofday () *. 1000.0) land 0xfffffff)

let new_trace_id () =
  Printf.sprintf "%07x-%06x" id_nonce
    (Atomic.fetch_and_add id_counter 1 land 0xffffff)

(* The ambient request id of the current domain: installed around one
   request (or one batch file) and picked up by traces created or reset in
   scope. *)
let current_request : string option Domain.DLS.key =
  Domain.DLS.new_key (fun () -> None)

let current_request_id () = Domain.DLS.get current_request

(* ---------- trace events ---------- *)

type kind = Span_begin | Span_end | Point

let kind_label = function
  | Span_begin -> "begin"
  | Span_end -> "end"
  | Point -> "event"

type event = {
  seq : int;  (** 0-based position in the run's event stream *)
  t_ms : float;  (** ms since trace creation, clamped non-decreasing *)
  kind : kind;
  name : string;
  id : int;  (** span id for begin/end; 0 for point events *)
  parent : int;  (** enclosing span id, 0 at top level *)
  attrs : attr list;
}

let dummy_event =
  { seq = 0; t_ms = 0.0; kind = Point; name = ""; id = 0; parent = 0; attrs = [] }

type open_span = { os_id : int; os_name : string; os_parent : int }

type trace = {
  buf : event array;
  capacity : int;
  mutable trace_id : string;
      (** request correlation id; the ambient request id at creation/reset
          when one is in scope, else freshly allocated *)
  mutable pushed : int;  (** total events ever pushed (= next seq) *)
  mutable dropped : int;  (** oldest events overwritten by the ring *)
  mutable created : float;  (** wall clock at creation (epoch seconds) *)
  mutable last_ms : float;  (** monotonicity clamp for [t_ms] *)
  mutable next_id : int;
  mutable stack : open_span list;  (** innermost open span first *)
  mutable flushed : int;  (** events below this seq were flight-dumped *)
}

let fresh_trace_id () =
  match Domain.DLS.get current_request with
  | Some rid -> rid
  | None -> new_trace_id ()

let create ?(capacity = 65536) () =
  let capacity = max 16 capacity in
  { buf = Array.make capacity dummy_event; capacity;
    trace_id = fresh_trace_id (); pushed = 0; dropped = 0;
    created = Unix.gettimeofday (); last_ms = 0.0; next_id = 0; stack = [];
    flushed = 0 }

let trace_id t = t.trace_id

(* The wall clock can step backwards (NTP); event timestamps are clamped to
   the previous event's, so the stream is non-decreasing by construction. *)
let now_ms t =
  let ms = (Unix.gettimeofday () -. t.created) *. 1000.0 in
  let ms = if ms < t.last_ms then t.last_ms else ms in
  t.last_ms <- ms;
  ms

let push t kind name ~id ~parent attrs =
  let e = { seq = t.pushed; t_ms = now_ms t; kind; name; id; parent; attrs } in
  t.buf.(t.pushed mod t.capacity) <- e;
  if t.pushed >= t.capacity then t.dropped <- t.dropped + 1;
  t.pushed <- t.pushed + 1

(* Rewind a trace for reuse without reallocating the ring: a long-running
   daemon (or a batch run) records thousands of requests, and a fresh
   64k-slot ring per request is pure allocator pressure. *)
let reset t =
  t.trace_id <- fresh_trace_id ();
  t.created <- Unix.gettimeofday ();
  t.pushed <- 0;
  t.dropped <- 0;
  t.last_ms <- 0.0;
  t.next_id <- 0;
  t.stack <- [];
  t.flushed <- 0

(* ---------- ambient installation (Domain.DLS) ---------- *)

let ambient : trace option Domain.DLS.key = Domain.DLS.new_key (fun () -> None)

let uninstall () = Domain.DLS.set ambient None

let with_trace t f =
  let previous = Domain.DLS.get ambient in
  Domain.DLS.set ambient (Some t);
  Fun.protect ~finally:(fun () -> Domain.DLS.set ambient previous) f

let current_trace () = Domain.DLS.get ambient

(* ---------- request scope ---------- *)

(* [Some dir]: flight dumps go to [dir], and every request records *)
let flight_sink : string option Atomic.t = Atomic.make None

(* The domain's one event ring, allocated by the first request that
   records on this domain and reset by every later one.  The trace file,
   the serve response's inline trace and the flight dump are all drains of
   it, so an event is recorded once whichever of them is on. *)
let domain_ring : trace option Domain.DLS.key =
  Domain.DLS.new_key (fun () -> None)

let with_request_id ?(record = false) rid f =
  let previous = Domain.DLS.get current_request in
  Domain.DLS.set current_request (Some rid);
  Fun.protect ~finally:(fun () -> Domain.DLS.set current_request previous)
  @@ fun () ->
  if record || Option.is_some (Atomic.get flight_sink) then begin
    let t =
      match Domain.DLS.get domain_ring with
      | Some t -> t
      | None ->
          let t = create () in
          Domain.DLS.set domain_ring (Some t);
          t
    in
    reset t;
    with_trace t f
  end
  else f ()

let active () = Option.is_some (Domain.DLS.get ambient)

let current_span t =
  match t.stack with [] -> 0 | s :: _ -> s.os_id

(* ---------- recording ---------- *)

let span_begin ?(attrs = []) name =
  match Domain.DLS.get ambient with
  | None -> 0
  | Some t ->
      let id = t.next_id + 1 in
      t.next_id <- id;
      let parent = current_span t in
      push t Span_begin name ~id ~parent attrs;
      t.stack <- { os_id = id; os_name = name; os_parent = parent } :: t.stack;
      id

let span_end ?(attrs = []) id =
  if id <> 0 then
    match Domain.DLS.get ambient with
    | None -> ()
    | Some t ->
        (* close down to [id]; spans left open by a non-local exit between
           matching begin/end calls are auto-closed on the way *)
        let rec close = function
          | [] -> []  (* unknown id (already closed): drop nothing *)
          | s :: rest when s.os_id = id ->
              push t Span_end s.os_name ~id:s.os_id ~parent:s.os_parent attrs;
              rest
          | s :: rest ->
              push t Span_end s.os_name ~id:s.os_id ~parent:s.os_parent [];
              close rest
        in
        if List.exists (fun s -> s.os_id = id) t.stack then
          t.stack <- close t.stack

let span ?attrs name f =
  let id = span_begin ?attrs name in
  match f () with
  | v ->
      span_end id;
      v
  | exception e ->
      span_end id;
      raise e

let event ?(attrs = []) name =
  match Domain.DLS.get ambient with
  | None -> ()
  | Some t -> push t Point name ~id:0 ~parent:(current_span t) attrs

(* ---------- reading a trace back ---------- *)

(* the buffered events with [seq >= from], oldest first *)
let events_from t from =
  let first = max from (t.pushed - min t.pushed t.capacity) in
  List.init (t.pushed - first) (fun i -> t.buf.((first + i) mod t.capacity))

let events t = events_from t 0

let dropped t = t.dropped

(* every span line carries the full (trace_id, span id, parent id) triple,
   so lines from different requests remain correlatable after any amount of
   log mixing *)
let event_to_json ?trace_id e =
  let tid =
    match trace_id with
    | None -> ""
    | Some id -> Printf.sprintf "\"trace_id\": %s, " (json_string id)
  in
  Printf.sprintf
    "{%s\"seq\": %d, \"t_ms\": %.3f, \"kind\": %s, \"name\": %s, \"id\": %d, \
     \"parent\": %d, \"attrs\": %s}"
    tid e.seq e.t_ms
    (json_string (kind_label e.kind))
    (json_string e.name) e.id e.parent (attrs_to_json e.attrs)

(** One JSON object per line, oldest event first, closed by a summary line
    [{"kind": "summary", "trace_id": …, "events": N, "dropped": N}]. *)
let to_jsonl t =
  let buf = Buffer.create 4096 in
  List.iter
    (fun e ->
      Buffer.add_string buf (event_to_json ~trace_id:t.trace_id e);
      Buffer.add_char buf '\n')
    (events t);
  Buffer.add_string buf
    (Printf.sprintf
       "{\"kind\": \"summary\", \"trace_id\": %s, \"events\": %d, \
        \"dropped\": %d}\n"
       (json_string t.trace_id) t.pushed t.dropped);
  Buffer.contents buf

let events_to_json_array ~last t =
  "["
  ^ String.concat ", "
      (List.map (event_to_json ?trace_id:None) (events_from t (t.pushed - last)))
  ^ "]"

(* ---------- flight recorder ---------- *)

(* The black-box drain of the domain ring: on a fault — a recycled worker,
   a deadline blown, a chaos probe contained, a diverged verify verdict —
   the newest events not dumped before are written as JSONL, so every
   fault gets the events leading up to it at zero serialization cost on
   the happy path.  A dump only moves the ring's [flushed] mark: the
   request's trace file still gets every event. *)
module Flight = struct
  let capacity = 512

  let set_sink d = Atomic.set flight_sink d
  let enabled () = Option.is_some (Atomic.get flight_sink)

  let dump_counter = Atomic.make 0
  let dumps_total () = Atomic.get dump_counter

  (* the dump body: a header line carrying the dump reason, the triggering
     request's trace id and the recording domain, then the events oldest
     first *)
  let render ~reason () =
    let tid, es =
      match Domain.DLS.get domain_ring with
      | None -> ("", [])
      | Some t ->
          let es = events_from t (max t.flushed (t.pushed - capacity)) in
          t.flushed <- t.pushed;
          (t.trace_id, es)
    in
    (* outside the request scope (e.g. the pool's recycle catch) the ring
       still holds the last request's events and id *)
    let rid =
      match Domain.DLS.get current_request with Some s -> s | None -> tid
    in
    let buf = Buffer.create 4096 in
    Buffer.add_string buf
      (Printf.sprintf
         "{\"kind\": \"flight\", \"reason\": %s, \"trace_id\": %s, \
          \"domain\": %d, \"at\": %.6f, \"entries\": %d}\n"
         (json_string reason) (json_string rid)
         (Domain.self () :> int)
         (Unix.gettimeofday ()) (List.length es));
    List.iter
      (fun e ->
        Buffer.add_string buf (event_to_json ~trace_id:tid e);
        Buffer.add_char buf '\n')
      es;
    Buffer.contents buf

  (* Totalised: a failing dump (unwritable directory, disk full) is
     recording, and recording must never take the request path down with
     it.  Returns the path written, [None] when disabled or the write
     failed. *)
  let dump ~reason () =
    match Atomic.get flight_sink with
    | None -> None
    | Some dir -> (
        let body = render ~reason () in
        let n = Atomic.fetch_and_add dump_counter 1 in
        let path =
          Filename.concat dir
            (Printf.sprintf "flight-%d-%d.jsonl" (Unix.getpid ()) n)
        in
        try
          (try
             if not (Sys.file_exists dir) then Unix.mkdir dir 0o755
           with Unix.Unix_error _ | Sys_error _ -> ());
          Out_channel.with_open_bin path (fun oc ->
              Out_channel.output_string oc body);
          Some path
        with _ -> None)
end

(* ---------- metrics registry ---------- *)

module Metrics = struct
  (* float cells need a CAS loop: Atomic has no fetch-and-add for floats *)
  let rec atomic_update a f =
    let cur = Atomic.get a in
    if not (Atomic.compare_and_set a cur (f cur)) then atomic_update a f

  type counter = { c : int Atomic.t }
  type gauge = { g : int Atomic.t }

  (* Log-scale latency histogram: bucket [i] counts observations with
     [v <= 2^(i + min_exp)] ms; the last bucket is the +inf overflow.
     Base-2 bounds from 1/16 ms to ~37 h cover every latency this pipeline
     can produce while keeping the array small enough to be all-Atomic. *)
  let min_exp = -4
  let bucket_count = 32

  let bucket_bound i =
    if i >= bucket_count - 1 then infinity
    else Float.of_int 2 ** Float.of_int (i + min_exp)

  let bucket_of v =
    if Float.is_nan v then bucket_count - 1
    else begin
      let rec find i =
        if i >= bucket_count - 1 then bucket_count - 1
        else if v <= bucket_bound i then i
        else find (i + 1)
      in
      find 0
    end

  type histogram = {
    buckets : int Atomic.t array;
    h_count : int Atomic.t;
    h_sum : float Atomic.t;
    h_min : float Atomic.t;  (** [infinity] until the first observation *)
    h_max : float Atomic.t;  (** [neg_infinity] until the first observation *)
  }

  (* indexed by name: a lookup is one hash under the mutex, whatever the
     number of registered metrics *)
  type registry = {
    counters : (string, counter) Hashtbl.t;
    gauges : (string, gauge) Hashtbl.t;
    histograms : (string, histogram) Hashtbl.t;
  }

  let registry =
    { counters = Hashtbl.create 128; gauges = Hashtbl.create 16;
      histograms = Hashtbl.create 64 }

  let registry_mutex = Mutex.create ()

  let locked f =
    Mutex.lock registry_mutex;
    Fun.protect ~finally:(fun () -> Mutex.unlock registry_mutex) f

  let get_or_create table name make =
    locked (fun () ->
        match Hashtbl.find_opt table name with
        | Some x -> x
        | None ->
            let x = make () in
            Hashtbl.replace table name x;
            x)

  let counter name =
    get_or_create registry.counters name (fun () -> { c = Atomic.make 0 })

  let incr ?(by = 1) c = ignore (Atomic.fetch_and_add c.c by)
  let counter_value c = Atomic.get c.c

  let gauge name =
    get_or_create registry.gauges name (fun () -> { g = Atomic.make 0 })

  let set g v = Atomic.set g.g v

  let histogram name =
    get_or_create registry.histograms name (fun () ->
        { buckets = Array.init bucket_count (fun _ -> Atomic.make 0);
          h_count = Atomic.make 0;
          h_sum = Atomic.make 0.0;
          h_min = Atomic.make infinity;
          h_max = Atomic.make neg_infinity })

  (* Handles named [prefix ^ suffix] for a small set of suffixes (rule
     kinds, phases, verdicts), each looked up in the registry on its first
     use, exactly when a direct lookup would register it, and kept: later
     uses compare the suffix against the few already seen, without the
     mutex or building the name.  Suffixes are usually string literals, so
     the physical test answers first.  Domains race only to add the same
     handle twice. *)
  type 'a family = {
    prefix : string;
    lookup : string -> 'a;
    seen : (string * 'a) list Atomic.t;
  }

  let family lookup prefix = { prefix; lookup; seen = Atomic.make [] }
  let counter_family prefix = family counter prefix
  let histogram_family prefix = family histogram prefix

  let rec find_suffix suffix = function
    | [] -> None
    | (k, h) :: rest ->
        if k == suffix || String.equal k suffix then Some h
        else find_suffix suffix rest

  let rec member f suffix =
    let seen = Atomic.get f.seen in
    match find_suffix suffix seen with
    | Some h -> h
    | None ->
        let h = f.lookup (f.prefix ^ suffix) in
        if Atomic.compare_and_set f.seen seen ((suffix, h) :: seen) then h
        else member f suffix

  let observe h v =
    ignore (Atomic.fetch_and_add h.buckets.(bucket_of v) 1);
    ignore (Atomic.fetch_and_add h.h_count 1);
    atomic_update h.h_sum (fun s -> s +. v);
    atomic_update h.h_min (fun m -> Float.min m v);
    atomic_update h.h_max (fun m -> Float.max m v)

  type histogram_snapshot = {
    hs_count : int;
    hs_sum : float;
    hs_min : float;  (** [nan] when empty *)
    hs_max : float;  (** [nan] when empty *)
    hs_buckets : (float * int) list;
        (** non-empty buckets as (upper bound in ms, count); the overflow
            bucket's bound is [infinity] *)
  }

  type snapshot = {
    counters : (string * int) list;  (** sorted by name *)
    gauges : (string * int) list;
    histograms : (string * histogram_snapshot) list;
  }

  let snapshot_histogram h =
    let count = Atomic.get h.h_count in
    let buckets = ref [] in
    for i = bucket_count - 1 downto 0 do
      let n = Atomic.get h.buckets.(i) in
      if n > 0 then buckets := (bucket_bound i, n) :: !buckets
    done;
    { hs_count = count;
      hs_sum = Atomic.get h.h_sum;
      hs_min = (if count = 0 then Float.nan else Atomic.get h.h_min);
      hs_max = (if count = 0 then Float.nan else Atomic.get h.h_max);
      hs_buckets = !buckets }

  (* Quantile estimate from the log2 buckets: the upper bound of the bucket
     the q-th observation falls in (the true max for the overflow bucket,
     since infinity is useless as a latency estimate).  Coarse by design —
     buckets double — but monotone and cheap, which is what a daemon's
     p50/p99 health numbers need. *)
  let quantile hs q =
    if hs.hs_count = 0 then Float.nan
    else begin
      let q = Float.max 0.0 (Float.min 1.0 q) in
      let target =
        Float.max 1.0 (Float.round (q *. float_of_int hs.hs_count))
      in
      let rec walk seen = function
        | [] -> hs.hs_max
        | (bound, n) :: rest ->
            let seen = seen + n in
            if float_of_int seen >= target then
              if bound = infinity then hs.hs_max else bound
            else walk seen rest
      in
      walk 0 hs.hs_buckets
    end

  let by_name (a, _) (b, _) = String.compare a b

  let sorted_values table value =
    List.sort by_name
      (Hashtbl.fold (fun name x acc -> (name, value x) :: acc) table [])

  let snapshot () =
    locked (fun () ->
        { counters = sorted_values registry.counters (fun c -> Atomic.get c.c);
          gauges = sorted_values registry.gauges (fun g -> Atomic.get g.g);
          histograms = sorted_values registry.histograms snapshot_histogram })

  (* Zeroes every registered value; handles created before the reset stay
     valid.  Used at the start of a batch run so metrics.json is per-run. *)
  let reset () =
    locked (fun () ->
        Hashtbl.iter (fun _ c -> Atomic.set c.c 0) registry.counters;
        Hashtbl.iter (fun _ g -> Atomic.set g.g 0) registry.gauges;
        Hashtbl.iter
          (fun _ h ->
            Array.iter (fun b -> Atomic.set b 0) h.buckets;
            Atomic.set h.h_count 0;
            Atomic.set h.h_sum 0.0;
            Atomic.set h.h_min infinity;
            Atomic.set h.h_max neg_infinity)
          registry.histograms)

  (* an empty histogram's nan min, max and quantiles, and the last
     bucket's infinite bound, render as null *)
  let histogram_snapshot_to_json hs =
    Printf.sprintf
      "{\"count\": %d, \"sum_ms\": %s, \"min_ms\": %s, \"max_ms\": %s, \
       \"p50_ms\": %s, \"p90_ms\": %s, \"p99_ms\": %s, \"buckets\": [%s]}"
      hs.hs_count (json_float hs.hs_sum) (json_float hs.hs_min)
      (json_float hs.hs_max)
      (json_float (quantile hs 0.50))
      (json_float (quantile hs 0.90))
      (json_float (quantile hs 0.99))
      (String.concat ", "
         (List.map
            (fun (le, n) ->
              Printf.sprintf "{\"le_ms\": %s, \"n\": %d}" (json_float le) n)
            hs.hs_buckets))

  let snapshot_to_json s =
    let field (name, v) = Printf.sprintf "    %s: %d" (json_string name) v in
    let hfield (name, hs) =
      Printf.sprintf "    %s: %s" (json_string name)
        (histogram_snapshot_to_json hs)
    in
    String.concat "\n"
      [
        "{";
        Printf.sprintf "  \"counters\": {\n%s\n  },"
          (String.concat ",\n" (List.map field s.counters));
        Printf.sprintf "  \"gauges\": {\n%s\n  },"
          (String.concat ",\n" (List.map field s.gauges));
        Printf.sprintf "  \"histograms\": {\n%s\n  }"
          (String.concat ",\n" (List.map hfield s.histograms));
        "}";
      ]

  (* ----- Prometheus text exposition (version 0.0.4) ----- *)

  (* metric names admit [a-zA-Z0-9_:] only; our dotted registry names map
     dots (and anything else) to underscores under one shared prefix *)
  let prom_name name =
    let buf = Buffer.create (String.length name + 16) in
    Buffer.add_string buf "invoke_deobf_";
    String.iter
      (fun c ->
        match c with
        | 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '_' -> Buffer.add_char buf c
        | _ -> Buffer.add_char buf '_')
      name;
    Buffer.contents buf

  let prom_float f =
    if Float.is_nan f then "NaN"
    else if f = infinity then "+Inf"
    else if f = neg_infinity then "-Inf"
    else Printf.sprintf "%.6g" f

  (** Render a snapshot in Prometheus text exposition format: counters as
      [_total]-suffixed counters, gauges as gauges, and each log2 latency
      histogram as a cumulative [_bucket{le=…}] series with [_sum] and
      [_count]. *)
  let to_prometheus s =
    let buf = Buffer.create 8192 in
    let line fmt = Printf.ksprintf (fun l -> Buffer.add_string buf l) fmt in
    List.iter
      (fun (name, v) ->
        let n = prom_name name ^ "_total" in
        line "# TYPE %s counter\n%s %d\n" n n v)
      s.counters;
    List.iter
      (fun (name, v) ->
        let n = prom_name name in
        line "# TYPE %s gauge\n%s %d\n" n n v)
      s.gauges;
    List.iter
      (fun (name, hs) ->
        let n = prom_name name in
        line "# TYPE %s histogram\n" n;
        let cum = ref 0 in
        List.iter
          (fun (le, count) ->
            cum := !cum + count;
            if le <> infinity then
              line "%s_bucket{le=\"%s\"} %d\n" n (prom_float le) !cum)
          hs.hs_buckets;
        line "%s_bucket{le=\"+Inf\"} %d\n" n hs.hs_count;
        line "%s_sum %s\n" n (prom_float hs.hs_sum);
        line "%s_count %d\n" n hs.hs_count)
      s.histograms;
    Buffer.contents buf
end
