(** Deterministic fault injection: named probe points, seeded draw streams,
    and the corpus mutation fuzzer.  See the interface for the contract. *)

type config = {
  seed : int;
  rate : float;
  site_rates : (string * float) list;
}

exception Injected of string

(* enabled/disabled is one atomic load on the probe fast path *)
let cfg : config option Atomic.t = Atomic.make None

let set c = Atomic.set cfg c
let current () = Atomic.get cfg
let enabled () = Atomic.get cfg <> None

(* Guard registers Deadline_exceeded at init; until then (or in tests that
   use Chaos without Guard) the deadline fault degrades to Injected *)
let deadline_exn : exn ref = ref (Injected "deadline")
let set_deadline_exn e = deadline_exn := e

(* Same inversion for the memory fault: raising the runtime's own
   [Out_of_memory] from a probe made injected exhaustion indistinguishable
   from the real allocator giving up — and the runtime's preallocated
   exception is not ours to raise.  Guard registers its dedicated
   injected-OOM exception here at init (classified as [Oom], so the
   structured failure reads identically); before registration the fault
   degrades to Injected. *)
let oom_exn : exn ref = ref (Injected "oom")
let set_oom_exn e = oom_exn := e

(* The draw stream is domain-local so parallel workers never interleave
   draws; with_scope re-derives it from (seed, label) so a worker's stream
   depends only on what it is processing, not on which domain it is. *)
let stream : Rng.t option ref Domain.DLS.key =
  Domain.DLS.new_key (fun () -> ref None)

let draws_counter = Atomic.make 0
let draws () = Atomic.get draws_counter
let reset_draws () = Atomic.set draws_counter 0

let stream_for seed label =
  Rng.create
    (Int64.logxor
       (Int64.mul 0x9E3779B97F4A7C15L (Int64.of_int (Hashtbl.hash label + 1)))
       (Int64.of_int seed))

let with_scope label f =
  match Atomic.get cfg with
  | None -> f ()
  | Some c ->
      let r = Domain.DLS.get stream in
      let saved = !r in
      r := Some (stream_for c.seed label);
      Fun.protect ~finally:(fun () -> r := saved) f

let rate_for c site =
  match List.assoc_opt site c.site_rates with Some r -> r | None -> c.rate

let inject c site =
  Atomic.incr draws_counter;
  let r = Domain.DLS.get stream in
  let rng =
    match !r with
    | Some g -> g
    | None ->
        let g = stream_for c.seed "ambient" in
        r := Some g;
        g
  in
  (* always draw, so the stream position is independent of per-site rates
     at other sites and of whether this probe fires *)
  if Rng.chance rng (rate_for c site) then
    match Rng.int rng 4 with
    | 0 -> raise !deadline_exn
    | 1 -> raise Stack_overflow
    | 2 -> raise !oom_exn
    | _ -> raise (Injected site)

let probe site =
  match Atomic.get cfg with None -> () | Some c -> inject c site

(* ---------- --chaos spec ---------- *)

let parse_site_rates spec =
  let parse_one acc part =
    match acc with
    | Error _ as e -> e
    | Ok acc -> (
        match String.index_opt part '=' with
        | None -> Error (Printf.sprintf "expected SITE=RATE, got %S" part)
        | Some i -> (
            let site = String.trim (String.sub part 0 i) in
            let rate =
              String.trim (String.sub part (i + 1) (String.length part - i - 1))
            in
            match float_of_string_opt rate with
            | Some r when r >= 0.0 && r <= 1.0 -> Ok ((site, r) :: acc)
            | _ -> Error (Printf.sprintf "bad rate %S for site %s" rate site)))
  in
  match
    List.fold_left parse_one (Ok []) (String.split_on_char ',' spec)
  with
  | Ok l -> Ok (List.rev l)
  | Error _ as e -> e

let parse_base seed rate =
  match
    (int_of_string_opt (String.trim seed), float_of_string_opt (String.trim rate))
  with
  | Some seed, Some rate when rate >= 0.0 && rate <= 1.0 ->
      Ok { seed; rate; site_rates = [] }
  | _ -> Error "expected SEED:RATE with RATE in [0,1]"

let parse_spec s =
  match String.split_on_char ':' s with
  | [ seed; rate ] | [ seed; rate; "" ] -> parse_base seed rate
  | [ seed; rate; sites ] -> (
      match parse_base seed rate with
      | Error _ as e -> e
      | Ok base -> (
          match parse_site_rates sites with
          | Ok site_rates -> Ok { base with site_rates }
          | Error _ as e -> e))
  | _ -> Error "expected SEED:RATE[:SITE=RATE,...]"

(* ---------- corpus mutation fuzzer ---------- *)

module Mutate = struct
  type kind = Truncate | Byte_flip | Splice | Encoding

  let kinds = [ Truncate; Byte_flip; Splice; Encoding ]

  let kind_name = function
    | Truncate -> "truncate"
    | Byte_flip -> "byte-flip"
    | Splice -> "splice"
    | Encoding -> "encoding"

  let truncate_at frac s =
    let frac = Float.max 0.0 (Float.min 1.0 frac) in
    String.sub s 0 (int_of_float (frac *. float_of_int (String.length s)))

  let apply rng kind s =
    let n = String.length s in
    if n = 0 then "\000"
    else
      match kind with
      | Truncate -> truncate_at (0.1 +. Rng.float rng 0.8) s
      | Byte_flip ->
          let b = Bytes.of_string s in
          let flips = 1 + (n / 64) in
          for _ = 1 to flips do
            let i = Rng.int rng n in
            Bytes.set b i (Char.chr (Char.code (Bytes.get b i) lxor (1 + Rng.int rng 255)))
          done;
          Bytes.to_string b
      | Splice ->
          (* duplicate one slice over another — the shape of a dropper that
             concatenated two downloads at the wrong offsets *)
          let a = Rng.int rng n and b = Rng.int rng n in
          let lo = min a b and hi = max a b in
          let len = max 1 ((hi - lo) / 2) in
          let src_off = Rng.int rng (max 1 (n - len + 1)) in
          String.sub s 0 lo
          ^ String.sub s src_off (min len (n - src_off))
          ^ String.sub s hi (n - hi)
      | Encoding ->
          if Rng.bool rng then begin
            (* NUL-interleave a slice: half-decoded UTF-16 *)
            let lo = Rng.int rng n in
            let hi = min n (lo + 1 + Rng.int rng (max 1 (n / 4))) in
            let buf = Buffer.create (n + (hi - lo)) in
            Buffer.add_string buf (String.sub s 0 lo);
            String.iter
              (fun c ->
                Buffer.add_char buf c;
                Buffer.add_char buf '\000')
              (String.sub s lo (hi - lo));
            Buffer.add_string buf (String.sub s hi (n - hi));
            Buffer.contents buf
          end
          else
            (* binary dropper prefix: BOM plus raw high bytes *)
            let junk =
              String.init
                (8 + Rng.int rng 24)
                (fun _ -> Char.chr (128 + Rng.int rng 128))
            in
            "\xff\xfe" ^ junk ^ "\n" ^ s
end
