(** Evaluation environment: variable scopes, effect events, limits.

    Two modes share one interpreter:
    {ul
    {- [Recovery] — used by the deobfuscator's Invoke-based recovery.  Any
       side effect (network, file, process, registry, sleep) raises
       {!Blocked}; the deobfuscator then keeps the obfuscated piece, exactly
       as the paper's blocklist does.}
    {- [Sandbox] — used for behavioural-consistency experiments.  Side
       effects are recorded as events and return synthetic results, like the
       TianQiong sandbox the paper uses.}} *)

open Pscommon

type mode = Recovery | Sandbox

type event =
  | Dns_query of string
  | Tcp_connect of string * int
  | Http_get of string  (** DownloadString / Invoke-WebRequest *)
  | Http_download of string * string  (** url, destination path *)
  | File_write of string
  | File_read of string
  | Process_start of string
  | Registry_write of string
  | Sleep of float

let event_to_string = function
  | Dns_query h -> Printf.sprintf "dns:%s" h
  | Tcp_connect (h, p) -> Printf.sprintf "tcp:%s:%d" h p
  | Http_get u -> Printf.sprintf "http-get:%s" u
  | Http_download (u, p) -> Printf.sprintf "http-download:%s->%s" u p
  | File_write p -> Printf.sprintf "file-write:%s" p
  | File_read p -> Printf.sprintf "file-read:%s" p
  | Process_start c -> Printf.sprintf "process:%s" c
  | Registry_write k -> Printf.sprintf "registry:%s" k
  | Sleep s -> Printf.sprintf "sleep:%g" s

exception Blocked of string
(** Raised in [Recovery] mode when execution would produce a side effect. *)

exception Eval_error of string
exception Limit_exceeded of string

type limits = {
  max_steps : int;
  max_invoke_depth : int;  (** nested Invoke-Expression layers *)
  max_collection : int;  (** range / array size cap *)
  max_string_bytes : int;  (** cap on any single string value built *)
}

let default_limits =
  { max_steps = 2_000_000; max_invoke_depth = 32; max_collection = 1_000_000;
    max_string_bytes = 32 * 1024 * 1024 }

let step_budget ~bytes = 400_000 + (40 * bytes)

(* the longest any evaluator runs, whatever its request has left *)
let max_eval_s = 5.0

(* map evaluator limits into the guard taxonomy without a dependency cycle *)
let () =
  Guard.register_classifier (function
    | Limit_exceeded m -> Some (Guard.Interpreter_limit m)
    | _ -> None)

(* A scope maps each name it binds to a mutable cell: updating a binding
   is one lookup and one store, and a pipeline cursor resolved once is
   updated per item with the store alone (see {!cursor}). *)
type binding = { mutable value : Psvalue.Value.t }

(* tables keyed on names: a string hash and a string compare per probe,
   not the generic ones *)
module Name_table = Hashtbl.Make (struct
  type t = string

  let equal = String.equal
  let hash = String.hash
end)

type scope = { table : binding Name_table.t }

type fn = { fn_params : Psast.Ast.variable list; fn_body : Psast.Ast.t }

type payload = {
  decoded : string;
  steps : int;
  reads : (string * Psvalue.Value.t) list;
  writes : (string * Psvalue.Value.t) list;
  commands : string list;
  decoded_under : limits;
}

type payloads = (string, payload) Hashtbl.t

(* What recovery watches while it decodes a payload piece: whether the
   evaluation is self-contained, which outside scalars it read, where its
   writes landed, and the steps of the piece's lone statement minus that
   statement's own tick. *)
type probe = {
  target : Psast.Ast.t;  (** the piece's lone pipeline statement *)
  outer : scope list;  (** the scopes that existed before the piece ran *)
  mutable self_contained : bool;
  mutable written : string list;  (** keys the piece wrote into [outer] *)
  mutable settled : Psast.Ast.var_key list;
      (** variable keys (physically, as the AST and the interpreter pass
          them) whose scope key is in [written]: every later read or write
          of them is the piece's own, so the decode loop's [$_] and
          [$input] are checked once, not per element *)
  mutable reads : (string * Psvalue.Value.t) list;
      (** outside scalar bindings it read, by scope key, with the value the
          first read found *)
  mutable checked : Psast.Ast.var_key list;
      (** variable keys (physically) whose outside read is in [reads] *)
  mutable passed : Psast.Ast.var_key;
      (** the key of the last read found in [settled] or [checked]: its
          next read needs no check.  [checked] only grows, and a stage's
          restore, the only thing that drops keys from [settled], resets
          it, so a loop's reads of its one key cost one comparison *)
  mutable looked_up : string list;  (** command names it found undefined *)
  mutable in_place : int;  (** steps of [target]'s pipeline; -1 until done *)
  sb_text_reads : int;
      (** {!Psvalue.Value.script_block_text_reads} when the probe started *)
}

type t = {
  mutable scopes : scope list;  (** innermost first; last is global *)
  global : scope;  (** the last of [scopes] *)
  mutable created : int;
      (** bindings created or removed so far in any scope: a resolved
          {!cursor} cell stays where {!set_var} would write while this
          count stands *)
  functions : (string, fn) Hashtbl.t;  (** keys lowercased *)
  env_vars : (string, string) Hashtbl.t;
      (** the $env: names this environment wrote; the rest read
          [default_env_vars] *)
  mode : mode;
  limits : limits;
  deadline : Guard.deadline;
  mutable steps : int;
  mutable invoke_depth : int;
  mutable events : event list;  (** reverse order *)
  mutable command_log : string list;
      (** commands the interpreter could not resolve, with stringified args
          (reverse order).  [Sandbox] only: recovery-mode piece execution
          must stay effect-free so memoized piece results never carry (or
          replay) observations — see {!log_command}. *)
  mutable output_sink : Psvalue.Value.t list;  (** Write-Host capture, reverse *)
  mutable downloads_fail : bool;
      (** wild samples' C2 servers are dead: when set, network fetches
          record their event and then raise, like a timed-out WebClient.
          Tools that execute samples for real run in this mode. *)
  mutable iex_hook : (literal:bool -> string -> bool) option;
      (** overriding-function simulation: called with each string handed to
          Invoke-Expression.  [literal] is true when the command was spelled
          out (an override installed by text replacement only fires then).
          Returning [true] consumes the payload — execution is skipped, as
          an override that prints instead of executing would. *)
  mutable provenance : Provenance.t option;
      (** when installed, the interpreter stamps each variable write with
          its defining extent / step / dependency set — the dynamic
          recovery plane.  [None] (the default) costs one load per write. *)
  mutable probe : probe option;
      (** [Recovery]: set while a payload piece is decoded for reuse *)
  mutable payloads : payloads option;
      (** [Sandbox]: payloads recovery already decoded, keyed on the
          {!Psast.Eval_digest} of the stages they decode *)
}

let new_scope () = { table = Name_table.create 16 }

(* Simulated Windows environment, enough for the $env / $pshome index tricks
   obfuscators rely on ($pshome[4]+$pshome[30]+'x' = 'iex', comspec[4,24,25]
   = 'iex', …). *)
let default_env_vars =
  let t = Name_table.create 16 in
  List.iter
    (fun (k, v) -> Name_table.replace t (Strcase.lower k) v)
    [
      ("comspec", "C:\\WINDOWS\\system32\\cmd.exe");
      ("windir", "C:\\WINDOWS");
      ("systemroot", "C:\\WINDOWS");
      ("temp", "C:\\Users\\user\\AppData\\Local\\Temp");
      ("tmp", "C:\\Users\\user\\AppData\\Local\\Temp");
      ("public", "C:\\Users\\Public");
      ("userprofile", "C:\\Users\\user");
      ("username", "user");
      ("computername", "DESKTOP-USER");
      ("programdata", "C:\\ProgramData");
      ("appdata", "C:\\Users\\user\\AppData\\Roaming");
      ("localappdata", "C:\\Users\\user\\AppData\\Local");
      ("psmodulepath", "C:\\Users\\user\\Documents\\WindowsPowerShell\\Modules");
      ("path", "C:\\WINDOWS\\system32;C:\\WINDOWS");
      ("processor_architecture", "AMD64");
    ];
  t

let automatic_variables =
  [
    ("true", Psvalue.Value.Bool true);
    ("false", Psvalue.Value.Bool false);
    ("null", Psvalue.Value.Null);
    ("pshome", Psvalue.Value.Str "C:\\Windows\\System32\\WindowsPowerShell\\v1.0");
    ("shellid", Psvalue.Value.Str "Microsoft.PowerShell");
    ("home", Psvalue.Value.Str "C:\\Users\\user");
    ("pid", Psvalue.Value.Int 4242);
    ("pwd", Psvalue.Value.Str "C:\\Users\\user");
    ("verbosepreference", Psvalue.Value.Str "SilentlyContinue");
    ("erroractionpreference", Psvalue.Value.Str "Continue");
    ("psversiontable", Psvalue.Value.Hash [ (Psvalue.Value.Str "PSVersion", Psvalue.Value.Str "5.1.19041") ]);
    ("psculture", Psvalue.Value.Str "en-US");
    ("psuiculture", Psvalue.Value.Str "en-US");
  ]

(* [default_env_vars] and this table are read-only fallbacks behind every
   environment's own bindings (copy-on-write): a fresh environment copies
   nothing, a read that no scope answers falls through to the template, and
   a write creates the environment's own binding (see {!assign}).  Built
   once, read by every domain, written by none: never hand them out. *)
let automatic_scope =
  let t = Name_table.create 16 in
  List.iter (fun (k, v) -> Name_table.replace t k v) automatic_variables;
  t

let create ?(mode = Recovery) ?(limits = default_limits) () =
  let global = new_scope () in
  {
    scopes = [ global ];
    global;
    created = 0;
    functions = Hashtbl.create 8;
    env_vars = Hashtbl.create 4;
    mode;
    limits;
    deadline =
      Float.min (Guard.ambient_deadline ()) (Guard.deadline_after max_eval_s);
    steps = 0;
    invoke_depth = 0;
    events = [];
    command_log = [];
    output_sink = [];
    downloads_fail = false;
    iex_hook = None;
    provenance = None;
    probe = None;
    payloads = None;
  }

(* polling the clock every step would dominate the hot loop; every 2048
   charged steps keeps deadline latency in the microseconds *)
let charge env n =
  let before = env.steps in
  env.steps <- before + n;
  if env.steps > env.limits.max_steps then
    raise (Limit_exceeded "step budget exhausted");
  if before lsr 11 <> env.steps lsr 11 then Guard.check env.deadline

(* [charge env 1], the evaluator's most frequent call, without the call:
   a count crosses a multiple of 2 048 exactly when it lands on one *)
let tick env =
  let n = env.steps + 1 in
  env.steps <- n;
  if n > env.limits.max_steps then raise (Limit_exceeded "step budget exhausted");
  if n land 2047 = 0 then Guard.check env.deadline

let check_size env (v : Psvalue.Value.t) =
  match v with
  | Psvalue.Value.Str s ->
      let n = String.length s in
      if n > env.limits.max_string_bytes then
        raise
          (Limit_exceeded
             (Printf.sprintf "string of %d bytes exceeds max_string_bytes" n))
  | Psvalue.Value.Arr a ->
      if Array.length a > env.limits.max_collection then
        raise
          (Limit_exceeded
             (Printf.sprintf "collection of %d elements exceeds max_collection"
                (Array.length a)))
  | _ -> ()

(* Calibrated on a plain step of about 64 ns: a matcher step takes 26 ns,
   ToUpper on a megabyte 4 ms, and an array 10 to 35 ns an element (up to
   130 ns for a million, with its collection). *)
let charge_matcher env matcher_steps = charge env (matcher_steps lsr 2)

let built env (v : Psvalue.Value.t) =
  check_size env v;
  match v with
  | Psvalue.Value.Str s -> charge env (String.length s lsr 4)
  | Psvalue.Value.Arr a -> charge env (Array.length a lsr 2)
  | _ -> ()

(* ---------- payload probes (recording) ---------- *)

let taint env =
  match env.probe with Some p -> p.self_contained <- false | None -> ()

let record env ev =
  taint env;
  match env.mode with
  | Sandbox -> env.events <- ev :: env.events
  | Recovery -> raise (Blocked (event_to_string ev))

let events env = List.rev env.events

(* Sandbox-only by construction: in Recovery mode unknown commands fail the
   piece instead, so a cached piece result can never hold a command
   observation that a cache hit would fail to (or doubly) replay. *)
let log_command env name args =
  taint env;
  match env.mode with
  | Sandbox ->
      let line =
        match args with
        | [] -> name
        | args -> name ^ " " ^ String.concat " " args
      in
      env.command_log <- line :: env.command_log
  | Recovery -> ()

let commands env = List.rev env.command_log

(* ---------- variables ---------- *)

module A = Psast.Ast

(* the pipeline cursors and [$args], which the interpreter binds itself *)
let item_var = Psparse.Names.var_key "_"
let input_var = Psparse.Names.var_key "input"
let args_var = Psparse.Names.var_key "args"

(* a key no variable has, physically: {!probe}'s [passed] before any read *)
let no_key = { A.drive = A.No_drive; scope_key = ""; folded = "" }

(* the innermost binding of [key]; [Not_found] when no scope binds it *)
let rec find_binding scopes key =
  match scopes with
  | [] -> raise Not_found
  | s :: rest -> (
      match Name_table.find s.table key with
      | b -> b
      | exception Not_found -> find_binding rest key)

(* what a read of [key] sees: the innermost binding, else the automatic
   template behind the global scope *)
let lookup_in scopes key =
  match find_binding scopes key with
  | b -> Some b.value
  | exception Not_found -> Name_table.find_opt automatic_scope key

(* [List.mem] and [List.mem_assoc] on names, with [String.equal] rather
   than the polymorphic compare *)
let rec mem_name key = function
  | [] -> false
  | k :: rest -> String.equal k key || mem_name key rest

let rec mem_name_assoc key = function
  | [] -> false
  | (k, _) :: rest -> String.equal k key || mem_name_assoc key rest

(* values a reuse can compare with what the site's bindings hold *)
let immutable_scalar (v : Psvalue.Value.t) =
  match v with
  | Null | Bool _ | Int _ | Float _ | Char _ | Str _ -> true
  | Arr _ | Hash _ | Script_block _ | Secure_string _ | Obj _ -> false

(* A read is the piece's own when it resolves to a binding the piece
   wrote.  A read of an outside binding (seeded or automatic) that holds
   an immutable scalar is recorded, so a reuse can check that the site
   reads the same value; anything else (an outside array or object,
   [$env:], a drive scope, a miss) disqualifies.  An automatic variable no
   scope binds is an outside binding of the global scope. *)
let probe_outside_read p (k : A.var_key) key v =
  if immutable_scalar v then begin
    if not (mem_name_assoc key p.reads) then p.reads <- (key, v) :: p.reads;
    p.checked <- k :: p.checked
  end
  else p.self_contained <- false

let rec probe_resolved p (k : A.var_key) key = function
  | [] -> (
      match Name_table.find_opt automatic_scope key with
      | Some v -> probe_outside_read p k key v
      | None -> p.self_contained <- false)
  | s :: rest -> (
      match Name_table.find s.table key with
      | exception Not_found -> probe_resolved p k key rest
      | b ->
          if not (List.memq s p.outer) then ()
          else if mem_name key p.written then p.settled <- k :: p.settled
          else probe_outside_read p k key b.value)

let probe_read env p (k : A.var_key) =
  if List.memq k p.settled || List.memq k p.checked then p.passed <- k
  else if k.A.drive <> A.No_drive then p.self_contained <- false
  else probe_resolved p k k.A.scope_key env.scopes

(* A write lands where {!set_var} puts it: in a scope that existed before
   the piece ran, it is a residual write replayed after a reuse.  Creating
   a binding in a scope the piece pushed is not replayable: where the
   payload runs in place, the name may be visible and be updated. *)
let probe_lands p k key s =
  if List.memq s p.outer then begin
    if not (mem_name key p.written) then p.written <- key :: p.written;
    p.settled <- k :: p.settled
  end
  else p.self_contained <- false

let rec probe_landing env p k key current = function
  | [] ->
      probe_lands p k key
        (if Name_table.mem automatic_scope key then env.global else current)
  | s :: rest ->
      if not (Name_table.mem s.table key) then
        probe_landing env p k key current rest
      else if List.memq s p.outer then probe_lands p k key s

let probe_write env p (k : A.var_key) =
  if List.memq k p.settled then ()
  else if k.A.drive <> A.No_drive then p.self_contained <- false
  else
    match env.scopes with
    | [] -> ()
    | current :: _ -> probe_landing env p k k.A.scope_key current env.scopes

(* a new binding of [key] in [s]; the caller knows [s] has none *)
let bind env s key value =
  let b = { value } in
  Name_table.add s.table key b;
  env.created <- env.created + 1;
  b

(* the binding [key] has in [s], created when there is none *)
let binding_in env s key value =
  match Name_table.find s.table key with
  | b ->
      b.value <- value;
      b
  | exception Not_found -> bind env s key value

(* PowerShell assignment updates an existing visible variable, or creates
   it in the current scope.  An automatic variable no scope binds yet is
   visible in the global scope, so writing it binds it there. *)
let assign env key value =
  match find_binding env.scopes key with
  | b ->
      b.value <- value;
      b
  | exception Not_found -> (
      if Name_table.mem automatic_scope key then bind env env.global key value
      else
        match env.scopes with
        | s :: _ -> bind env s key value
        | [] -> assert false)

let read_var env (k : A.var_key) =
  (match env.probe with
  | Some p when k != p.passed -> probe_read env p k
  | Some _ | None -> ());
  match k.A.drive with
  | A.Env_drive -> (
      match Hashtbl.find_opt env.env_vars k.A.scope_key with
      | Some s -> Psvalue.Value.Str s
      | None -> (
          match Name_table.find_opt default_env_vars k.A.scope_key with
          | Some s -> Psvalue.Value.Str s
          | None -> Psvalue.Value.Null))
  | A.Global_drive | A.Local_drive | A.No_drive -> (
      match find_binding env.scopes k.A.scope_key with
      | b -> b.value
      | exception Not_found -> Name_table.find automatic_scope k.A.scope_key)
  | A.Other_drive -> raise Not_found

let get_var env k = match read_var env k with v -> Some v | exception Not_found -> None

let set_var env (k : A.var_key) value =
  (match env.probe with Some p -> probe_write env p k | None -> ());
  match k.A.drive with
  | A.Env_drive ->
      Hashtbl.replace env.env_vars k.A.scope_key (Psvalue.Value.to_string value)
  | A.Global_drive -> ignore (binding_in env env.global k.A.scope_key value)
  | A.Local_drive -> (
      match env.scopes with
      | s :: _ -> ignore (binding_in env s k.A.scope_key value)
      | [] -> assert false)
  | A.Other_drive | A.No_drive -> ignore (assign env k.A.scope_key value)

(* ---------- pipeline cursors ---------- *)

(* A pipeline binds [$_] and [$input] once per item.  The first {!set_cursor}
   resolves the binding {!set_var} would write, exactly as it would; later
   ones store into that binding while no binding was created anywhere since
   (a new binding may shadow it), and resolve again otherwise.  A payload
   probe checks the first write like any other; once the key is settled,
   the later ones are skipped while the probe's [settled] list is still
   the one the key was found in.  The lists are never changed in place
   and the cursor holds the one it saw, so a later list is never
   physically that one. *)
type cursor = {
  cursor_key : A.var_key;
  mutable cell : binding;
  mutable resolved_at : int;  (** [created] when [cell] was resolved; -1: never *)
  mutable settled_in : A.var_key list;
      (** the probe's [settled] list the key was last found in; [[]]: none *)
}

let cursor (k : A.var_key) =
  { cursor_key = k; cell = { value = Psvalue.Value.Null }; resolved_at = -1;
    settled_in = [] }

let probe_cursor env p c =
  probe_write env p c.cursor_key;
  if List.memq c.cursor_key p.settled then c.settled_in <- p.settled

let set_cursor env c value =
  (match env.probe with
  | Some p when c.settled_in != p.settled || c.settled_in == [] ->
      probe_cursor env p c
  | Some _ | None -> ());
  if c.resolved_at = env.created then c.cell.value <- value
  else begin
    c.cell <- assign env c.cursor_key.A.scope_key value;
    c.resolved_at <- env.created
  end

(* [$_] and [$input] belong to the pipeline stage that binds them: when it
   ends, however it ends, a binding it found gets its value back and a name
   that was unset is unset again.  The restore is not the piece's write: a
   probe forgets a cursor the piece had not written before the stage, so
   its later reads are checked as outside reads again. *)
let keeping_cursors env f =
  let keep (k : A.var_key) =
    let key = k.A.scope_key in
    let before =
      match find_binding env.scopes key with
      | b -> Some (b, b.value)
      | exception Not_found -> None
    in
    let fresh =
      match env.probe with Some p -> not (mem_name key p.written) | None -> false
    in
    fun () ->
      (match before with
      | Some (b, value) -> b.value <- value
      | None ->
          (* every binding of the name is the stage's; a cursor resolved to
             one must resolve again *)
          List.iter (fun s -> Name_table.remove s.table key) env.scopes;
          env.created <- env.created + 1);
      match env.probe with
      | Some p when fresh ->
          p.passed <- no_key;
          p.written <- List.filter (fun w -> not (String.equal w key)) p.written;
          p.settled <-
            List.filter
              (fun (s : A.var_key) -> not (String.equal s.A.scope_key key))
              p.settled
      | Some _ | None -> ()
  in
  let item = keep item_var and input = keep input_var in
  Fun.protect f ~finally:(fun () ->
      item ();
      input ())

let push_scope env = env.scopes <- new_scope () :: env.scopes

let pop_scope env =
  match env.scopes with
  | _ :: (_ :: _ as rest) -> env.scopes <- rest
  | _ -> ()

let with_scope env f =
  push_scope env;
  match f () with
  | result ->
      pop_scope env;
      result
  | exception e ->
      pop_scope env;
      raise e

(* ---------- functions ---------- *)

let define_function env key fn =
  taint env;
  Hashtbl.replace env.functions key fn

let find_function env key =
  let found = Hashtbl.find_opt env.functions key in
  (match env.probe with
  | Some p -> (
      match found with
      | Some _ -> p.self_contained <- false
      | None ->
          if not (mem_name key p.looked_up) then
            p.looked_up <- key :: p.looked_up)
  | None -> ());
  found

(* ---------- output sink (Write-Host etc.) ---------- *)

let sink env v =
  taint env;
  env.output_sink <- v :: env.output_sink
let sunk_output env = List.rev env.output_sink

(* ---------- final bindings (verification) ---------- *)

(* Global bindings the script itself established, sorted by name.  Automatic
   variables are skipped unless the script overwrote them — the comparison
   baseline of an empty session is noise, a changed preference variable is a
   behaviour. *)
let by_name bindings = List.sort (fun (a, _) (b, _) -> String.compare a b) bindings

let global_bindings env =
  Name_table.fold
    (fun name { value } acc ->
      if name = "_" || name = "input" then
        (* pipeline cursors ($_, $input): interpreter plumbing whose
           residue depends on whether a pipeline was folded away, not
           script state *)
        acc
      else
        match Name_table.find_opt automatic_scope name with
        | Some seeded when seeded = value -> acc
        | Some _ | None -> (name, value) :: acc)
    env.global.table []
  |> by_name

let scope_bindings env =
  List.map
    (fun s ->
      let own = Name_table.fold (fun name { value } acc -> (name, value) :: acc) s.table [] in
      if s != env.global then by_name own
      else
        by_name
          (Name_table.fold
             (fun name value acc ->
               if Name_table.mem s.table name then acc else (name, value) :: acc)
             automatic_scope own))
    env.scopes

(* ---------- binding fingerprints (recovery memoization) ---------- *)

(* A scalar binding set admits a stable content fingerprint; compound
   values (arrays, streams, script blocks) are mutable or carry hidden
   state, so a table containing one cannot be fingerprinted soundly. *)
let scalar_fingerprint buf (v : Psvalue.Value.t) =
  match v with
  | Psvalue.Value.Null -> Buffer.add_char buf 'N'; true
  | Psvalue.Value.Bool b -> Buffer.add_char buf (if b then 'T' else 'F'); true
  | Psvalue.Value.Int n ->
      Buffer.add_char buf 'i';
      Buffer.add_string buf (string_of_int n);
      true
  | Psvalue.Value.Float f ->
      Buffer.add_char buf 'f';
      Buffer.add_string buf (Printf.sprintf "%h" f);
      true
  | Psvalue.Value.Char c ->
      Buffer.add_char buf 'c';
      Buffer.add_char buf c;
      true
  | Psvalue.Value.Str s ->
      Buffer.add_char buf 's';
      Buffer.add_string buf (string_of_int (String.length s));
      Buffer.add_char buf ':';
      Buffer.add_string buf s;
      true
  | Psvalue.Value.Arr _ | Psvalue.Value.Hash _ | Psvalue.Value.Script_block _
  | Psvalue.Value.Secure_string _ | Psvalue.Value.Obj _ ->
      false

let bindings_digest bindings =
  let buf = Buffer.create 256 in
  let all_scalar =
    List.for_all
      (fun (name, value) ->
        Buffer.add_string buf (Pscommon.Strcase.lower name);
        Buffer.add_char buf '=';
        let ok = scalar_fingerprint buf value in
        Buffer.add_char buf ';';
        ok)
      bindings
  in
  if all_scalar then Some (Digest.string (Buffer.contents buf)) else None

(* ---------- payload reuse ---------- *)

let start_probe env ~target =
  let p =
    { target; outer = env.scopes; self_contained = true; written = [];
      settled = []; reads = []; checked = []; passed = no_key; looked_up = [];
      in_place = -1;
      sb_text_reads = Psvalue.Value.script_block_text_reads () }
  in
  env.probe <- Some p;
  p

let is_target p stmt = p.target == stmt

let set_in_place p steps = p.in_place <- steps

(* residual values are replayed into another environment, possibly many
   times: only values that can be copied without sharing qualify *)
let rec replayable (v : Psvalue.Value.t) =
  match v with
  | Null | Bool _ | Int _ | Float _ | Char _ | Str _ -> true
  | Arr a -> Array.for_all replayable a
  | Hash _ | Script_block _ | Secure_string _ | Obj _ -> false

let rec copy (v : Psvalue.Value.t) =
  match v with Arr a -> Psvalue.Value.Arr (Psvalue.Value.map_array copy a) | v -> v

let finish_probe env p decoded =
  let final key = lookup_in p.outer key in
  if
    p.self_contained && p.in_place >= 0
    && Psvalue.Value.script_block_text_reads () = p.sb_text_reads
    && List.for_all
         (fun key ->
           match final key with Some v -> replayable v | None -> false)
         p.written
  then
    Some
      { decoded; steps = p.in_place; reads = p.reads;
        writes =
          List.rev_map (fun key -> (key, Option.get (final key))) p.written;
        commands = p.looked_up; decoded_under = env.limits }
  else None

let same_scalar (a : Psvalue.Value.t) (b : Psvalue.Value.t) =
  match (a, b) with
  | Null, Null -> true
  | Bool x, Bool y -> x = y
  | Int x, Int y -> x = y
  | Float x, Float y -> Int64.equal (Int64.bits_of_float x) (Int64.bits_of_float y)
  | Char x, Char y -> x = y
  | Str x, Str y -> String.equal x y
  | _ -> false

let reads_same env (key, v) =
  match lookup_in env.scopes key with
  | Some now -> same_scalar v now
  | None -> false

let reuse env ~site_commands (p : payload) =
  if
    env.provenance <> None
    || env.steps + p.steps > env.limits.max_steps
    || env.limits.max_string_bytes < p.decoded_under.max_string_bytes
    || env.limits.max_collection < p.decoded_under.max_collection
    || List.exists (Hashtbl.mem env.functions) p.commands
    || List.exists (Hashtbl.mem env.functions) site_commands
    || not (List.for_all (reads_same env) p.reads)
  then false
  else begin
    (* [p.steps] already holds what building [p.decoded] was charged *)
    charge env p.steps;
    List.iter (fun (key, v) -> ignore (assign env key (copy v))) p.writes;
    check_size env (Psvalue.Value.Str p.decoded);
    true
  end
