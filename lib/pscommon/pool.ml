(** Fixed-size domain pool draining a bounded queue.

    Determinism by construction: {!map} writes item [i]'s result only to
    slot [i], and slots are disjoint, so the result list is always in input
    order no matter how the scheduler interleaves the workers.  Worker
    domains inherit nothing ambient — {!Guard}'s deadline stack is
    domain-local, so a deadline installed in one worker can never leak
    into another. *)

let recommended_jobs () = Domain.recommended_domain_count ()

(* Scheduling metrics, aggregated across all pools of the process: how long
   items sat in the queue before a worker claimed them vs how long they ran
   (Atomic-backed, so workers bump them concurrently and a snapshot at join
   time sees every domain's share). *)
let m_queue_wait = Telemetry.Metrics.histogram "pool.queue_wait_ms"
let m_run = Telemetry.Metrics.histogram "pool.run_ms"
let m_jobs = Telemetry.Metrics.gauge "pool.jobs"

(* ---------- service pool ---------- *)

(* A fixed set of worker domains drains a bounded queue until shutdown;
   the daemon keeps one for the life of the process.  The bound is the
   admission-control contract — submit never blocks and never grows
   memory; when the queue is full the caller sheds the item (answers
   "overloaded") instead of queueing unboundedly.

   With supervision the pool is also {e crash-only}: a supervisor domain
   watches per-worker slots (current item, admission deadline).  OCaml
   domains cannot be killed preemptively, so "preemption" here means the
   supervisor answers the victim's request on the worker's behalf,
   abandons the wedged domain (it exits on its own when — if ever — its
   loop ends), and installs a fresh domain in the slot; replacement
   failures back off exponentially with a flight-recorder dump at every
   edge. *)
module Service = struct
  let m_recycled = Telemetry.Metrics.counter "pool.service.recycled"
  let m_depth = Telemetry.Metrics.gauge "pool.service.depth"
  let m_wedged = Telemetry.Metrics.counter "pool.service.wedged"
  let m_respawns = Telemetry.Metrics.counter "pool.service.respawns"
  let m_respawn_failures =
    Telemetry.Metrics.counter "pool.service.respawn_failures"
  let m_zombies = Telemetry.Metrics.gauge "pool.service.zombies"

  type 'a supervision = {
    sv_grace_s : float;
    sv_deadline_of : 'a -> float;
    sv_describe : 'a -> string;
    sv_on_wedged : 'a -> unit;
  }

  (* Exponential respawn backoff: first failure retries fast, a crash loop
     levels off.  Pure, so the progression is testable in isolation. *)
  let respawn_backoff_base_s = 0.05
  let respawn_backoff_cap_s = 5.0

  let respawn_backoff failures =
    if failures <= 0 then 0.0
    else
      Float.min respawn_backoff_cap_s
        (respawn_backoff_base_s *. Float.pow 2.0 (float_of_int (failures - 1)))

  (* One worker's slot.  The worker writes item/deadline around each
     request; the supervisor reads them through the atomics from its own
     domain.  A replaced (wedged) worker keeps its own slot record — the
     fresh domain gets a fresh record — so the zombie's exit path never
     races the replacement's state. *)
  type 'a slot = {
    sl_item : 'a option Atomic.t;
    sl_deadline : float Atomic.t;  (* infinity when idle *)
    sl_abandoned : bool Atomic.t;  (* declared wedged: exit after the item *)
    sl_retired : bool Atomic.t;  (* the worker's loop has exited *)
  }

  let new_slot () =
    { sl_item = Atomic.make None; sl_deadline = Atomic.make infinity;
      sl_abandoned = Atomic.make false; sl_retired = Atomic.make false }

  (* per-position mutable state, touched only by the supervisor (and
     create): the live slot/domain pair plus the respawn backoff ledger *)
  type 'a position = {
    mutable p_slot : 'a slot;
    mutable p_domain : unit Domain.t option;
    mutable p_failures : int;  (* consecutive respawn failures *)
    mutable p_next_respawn : float;  (* epoch; 0 = immediately *)
  }

  type 'a t = {
    mutex : Mutex.t;
    nonempty : Condition.t;
    queue : (float * 'a) Queue.t;  (* (enqueue time, item) *)
    cap : int;
    handler : 'a -> unit;
    mutable stopping : bool;
    inflight : int Atomic.t;
    supervise : 'a supervision option;
    mutable positions : 'a position array;
    mutable supervisor : unit Domain.t option;
    supervisor_stop : bool Atomic.t;
    mutable zombies : ('a slot * unit Domain.t) list;  (* under mutex *)
  }

  let worker t (slot : 'a slot) () =
    let supervised = t.supervise <> None in
    let rec loop () =
      if Atomic.get slot.sl_abandoned then ()
      else begin
        Mutex.lock t.mutex;
        while Queue.is_empty t.queue && not t.stopping do
          Condition.wait t.nonempty t.mutex
        done;
        if Queue.is_empty t.queue then Mutex.unlock t.mutex (* draining done *)
        else begin
          let enqueued, item = Queue.pop t.queue in
          Telemetry.Metrics.set m_depth (Queue.length t.queue);
          Mutex.unlock t.mutex;
          Telemetry.Metrics.observe m_queue_wait
            ((Unix.gettimeofday () -. enqueued) *. 1000.0);
          Atomic.incr t.inflight;
          (* deadline before item: a supervisor that can see the item can
             always see a valid deadline for it *)
          (match t.supervise with
          | Some sv ->
              Atomic.set slot.sl_deadline (sv.sv_deadline_of item);
              Atomic.set slot.sl_item (Some item)
          | None -> ());
          let t0 = Unix.gettimeofday () in
          (* handlers are expected to be total (everything below them runs
             under Guard.protect); this catch is the recycling backstop — a
             handler bug or an injected pool fault costs one item, never a
             worker, and never the server *)
          (try t.handler item
           with e ->
             Telemetry.Metrics.incr m_recycled;
             (* black-box forensics before the worker moves on: the domain's
                ring still holds the events the dying request recorded *)
             ignore
               (Telemetry.Flight.dump
                  ~reason:("worker-recycled: " ^ Printexc.to_string e)
                  ());
             Telemetry.Log.warn (fun () ->
                 "service worker recycled: " ^ Printexc.to_string e));
          if supervised then begin
            Atomic.set slot.sl_item None;
            Atomic.set slot.sl_deadline infinity
          end;
          Telemetry.Metrics.observe m_run
            ((Unix.gettimeofday () -. t0) *. 1000.0);
          Atomic.decr t.inflight;
          loop ()
        end
      end
    in
    loop ();
    Atomic.set slot.sl_retired true

  (* Spawn a replacement into position [p].  The "serve.respawn" chaos site
     models the spawn itself failing (resource exhaustion at the worst
     moment); a failure backs off exponentially and leaves the position
     empty until the next supervisor scan past the backoff. *)
  let try_respawn t p ~now =
    if now >= p.p_next_respawn then begin
      match Chaos.probe "serve.respawn" with
      | exception e ->
          p.p_failures <- p.p_failures + 1;
          p.p_next_respawn <- now +. respawn_backoff p.p_failures;
          Telemetry.Metrics.incr m_respawn_failures;
          ignore
            (Telemetry.Flight.dump
               ~reason:
                 (Printf.sprintf "respawn-failed[%d]: %s" p.p_failures
                    (Printexc.to_string e))
               ());
          Telemetry.Log.warn (fun () ->
              Printf.sprintf "worker respawn failed (%d consecutive), \
                              backing off %.3fs"
                p.p_failures
                (respawn_backoff p.p_failures))
      | () -> (
          let slot = new_slot () in
          match Domain.spawn (worker t slot) with
          | d ->
              p.p_slot <- slot;
              p.p_domain <- Some d;
              p.p_failures <- 0;
              p.p_next_respawn <- 0.0;
              Telemetry.Metrics.incr m_respawns
          | exception e ->
              (* a real spawn failure (domain limit) takes the same backoff
                 path as an injected one *)
              p.p_failures <- p.p_failures + 1;
              p.p_next_respawn <- now +. respawn_backoff p.p_failures;
              Telemetry.Metrics.incr m_respawn_failures;
              Telemetry.Log.warn (fun () ->
                  "worker respawn failed: " ^ Printexc.to_string e))
    end

  (* One supervisor scan: declare wedges (answer the victim, abandon the
     domain, free the position) and respawn retired/abandoned positions. *)
  let scan t sv ~now =
    Array.iter
      (fun p ->
        let slot = p.p_slot in
        (* wedge detection: a worker polling Guard checkpoints raises
           Deadline_exceeded at its first checkpoint past the deadline, so
           one still busy at deadline+grace has stopped reaching
           checkpoints and only the supervisor can answer for it *)
        (match Atomic.get slot.sl_item with
        | Some item
          when (not (Atomic.get slot.sl_abandoned))
               && now > Atomic.get slot.sl_deadline +. sv.sv_grace_s ->
            Atomic.set slot.sl_abandoned true;
            Telemetry.Metrics.incr m_wedged;
            ignore
              (Telemetry.Flight.dump
                 ~reason:
                   ("worker-wedged: " ^ sv.sv_describe item)
                 ());
            Telemetry.Log.warn (fun () ->
                Printf.sprintf "worker wedged on %s: answering and replacing"
                  (sv.sv_describe item));
            (* answer the victim from the supervisor — the wedged domain
               may never come back to do it *)
            (try sv.sv_on_wedged item
             with e ->
               Telemetry.Log.warn (fun () ->
                   "on_wedged raised: " ^ Printexc.to_string e));
            (* the wedged handler still counts as inflight until its loop
               ends; account for it here so drain logic can discount it *)
            (match p.p_domain with
            | Some d ->
                Mutex.lock t.mutex;
                t.zombies <- (slot, d) :: t.zombies;
                Telemetry.Metrics.set m_zombies (List.length t.zombies);
                Mutex.unlock t.mutex
            | None -> ());
            p.p_domain <- None;
            p.p_slot <- new_slot ();
            Atomic.set p.p_slot.sl_retired true (* nothing running: respawn *)
        | _ -> ());
        (* respawn: the position's worker retired (wedge replacement
           above, or a crash of the loop itself) *)
        if (not t.stopping) && Atomic.get p.p_slot.sl_retired then begin
          (match p.p_domain with
          | Some d ->
              (* the loop exited; join is immediate and frees the domain *)
              Domain.join d;
              p.p_domain <- None
          | None -> ());
          try_respawn t p ~now
        end)
      t.positions;
    (* reap zombies whose bounded wedge finally ended *)
    Mutex.lock t.mutex;
    let finished, still =
      List.partition (fun (s, _) -> Atomic.get s.sl_retired) t.zombies
    in
    t.zombies <- still;
    Telemetry.Metrics.set m_zombies (List.length still);
    Mutex.unlock t.mutex;
    List.iter (fun (_, d) -> Domain.join d) finished

  let supervisor_loop t sv () =
    let interval =
      Float.max 0.002 (Float.min 0.05 (sv.sv_grace_s /. 8.0))
    in
    while not (Atomic.get t.supervisor_stop) do
      Unix.sleepf interval;
      scan t sv ~now:(Unix.gettimeofday ())
    done

  let create ~jobs ~queue_cap ?supervise handler =
    let t =
      { mutex = Mutex.create (); nonempty = Condition.create ();
        queue = Queue.create (); cap = max 1 queue_cap; handler;
        stopping = false; inflight = Atomic.make 0; supervise;
        positions = [||]; supervisor = None;
        supervisor_stop = Atomic.make false; zombies = [] }
    in
    Telemetry.Metrics.set m_jobs (max 1 jobs);
    t.positions <-
      Array.init (max 1 jobs) (fun _ ->
          let slot = new_slot () in
          { p_slot = slot; p_domain = Some (Domain.spawn (worker t slot));
            p_failures = 0; p_next_respawn = 0.0 });
    (match supervise with
    | Some sv -> t.supervisor <- Some (Domain.spawn (supervisor_loop t sv))
    | None -> ());
    t

  let submit t item =
    Mutex.lock t.mutex;
    let accepted =
      (not t.stopping) && Queue.length t.queue < t.cap
    in
    if accepted then begin
      Queue.push (Unix.gettimeofday (), item) t.queue;
      Telemetry.Metrics.set m_depth (Queue.length t.queue);
      Condition.signal t.nonempty
    end;
    Mutex.unlock t.mutex;
    accepted

  let depth t =
    Mutex.lock t.mutex;
    let n = Queue.length t.queue in
    Mutex.unlock t.mutex;
    n

  let inflight t = Atomic.get t.inflight

  (* busy slots whose worker is still trusted — wedged (abandoned) slots
     are excluded: their item was already answered by the supervisor *)
  let active_inflight t =
    Array.fold_left
      (fun acc p ->
        if Atomic.get p.p_slot.sl_abandoned then acc
        else acc + (match Atomic.get p.p_slot.sl_item with Some _ -> 1 | None -> 0))
      0 t.positions

  let shutdown t =
    Mutex.lock t.mutex;
    t.stopping <- true;
    Condition.broadcast t.nonempty;
    Mutex.unlock t.mutex;
    (match t.supervise with
    | None -> ()
    | Some sv ->
        (* drain under supervision: wait for the queue to empty and the
           non-wedged inflight work to finish.  The supervisor keeps
           scanning throughout, so a request that wedges {e during} the
           drain is still answered and its worker replaced; wedged domains
           get a bounded grace to end on their own, then are leaked (the
           process is exiting) rather than hanging the drain on an
           unjoinable domain. *)
        let patience = Unix.gettimeofday () +. Float.max 1.0 (8.0 *. sv.sv_grace_s) in
        let rec wait_drain () =
          let busy = depth t > 0 || active_inflight t > 0 in
          if busy then
            if Unix.gettimeofday () < patience then begin
              Unix.sleepf 0.005;
              wait_drain ()
            end
        in
        wait_drain ());
    Atomic.set t.supervisor_stop true;
    (match t.supervisor with
    | Some d ->
        Domain.join d;
        t.supervisor <- None
    | None -> ());
    (* join live workers: with the queue drained and [stopping] set their
       loops exit; an abandoned (wedged) worker is joined only once its
       loop actually ended, with bounded patience, else leaked *)
    let join_bounded slot d =
      let deadline = Unix.gettimeofday () +. 2.0 in
      let rec wait () =
        if Atomic.get slot.sl_retired then begin
          Domain.join d;
          true
        end
        else if Unix.gettimeofday () < deadline then begin
          Unix.sleepf 0.005;
          wait ()
        end
        else false
      in
      match t.supervise with
      | None ->
          Domain.join d;
          true
      | Some _ ->
          if Atomic.get slot.sl_abandoned then wait ()
          else begin
            Domain.join d;
            true
          end
    in
    Array.iter
      (fun p ->
        match p.p_domain with
        | Some d ->
            if join_bounded p.p_slot d then p.p_domain <- None
            else
              Telemetry.Log.warn (fun () ->
                  "leaking a wedged worker domain at shutdown")
        | None -> ())
      t.positions;
    Mutex.lock t.mutex;
    let zombies = t.zombies in
    t.zombies <- [];
    Mutex.unlock t.mutex;
    List.iter
      (fun (slot, d) ->
        if not (join_bounded slot d) then
          Telemetry.Log.warn (fun () ->
              "leaking a wedged worker domain at shutdown"))
      zombies;
    Telemetry.Metrics.set m_zombies 0;
    t.positions <- [||]
end

(* ---------- parallel map ---------- *)

(* A finite map is a service whose queue holds every index: the handler
   writes item [i]'s outcome to slot [i] only, and [shutdown] drains the
   queue and joins the workers before any slot is read. *)
let map ?(jobs = 1) f items =
  let items = Array.of_list items in
  let n = Array.length items in
  let jobs = max 1 (min jobs n) in
  if jobs <= 1 then Array.to_list (Array.map f items)
  else begin
    let results = Array.make n None in
    let service =
      Service.create ~jobs ~queue_cap:n (fun i ->
          results.(i) <-
            Some (match f items.(i) with v -> Ok v | exception e -> Error e))
    in
    for i = 0 to n - 1 do
      let accepted = Service.submit service i in
      assert accepted (* the queue holds all [n] indices *)
    done;
    Service.shutdown service;
    Array.to_list
      (Array.map
         (function
           | Some (Ok v) -> v
           | Some (Error e) -> raise e
           | None -> assert false (* every index was submitted and drained *))
         results)
  end
