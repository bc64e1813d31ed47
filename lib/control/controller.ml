module Datapath = Gf_sim.Datapath
module Metrics = Gf_sim.Metrics
module Cache_level = Gf_sim.Cache_level
module Evict = Gf_cache.Evict
module Heavy_hitter = Gf_offload.Heavy_hitter
module Loadtest = Gf_engine.Loadtest
module Json = Gf_util.Json
module Schema = Gf_telemetry.Schema

type spec = {
  min_threshold : int;
  max_k : int;
  max_sw_capacity : int;
  cooldown : int;
  max_actions : int;
}

let default_spec =
  {
    min_threshold = 1;
    max_k = 4096;
    max_sw_capacity = 65536;
    cooldown = 1;
    max_actions = 2;
  }

(* Raising the admission threshold has no spec knob (nothing reasonable to
   tune): it just must not run away. *)
let threshold_ceiling = 1 lsl 20

let spec_to_string s =
  Printf.sprintf
    "slo,min-threshold=%d,max-k=%d,max-sw-capacity=%d,cooldown=%d,max-actions=%d"
    s.min_threshold s.max_k s.max_sw_capacity s.cooldown s.max_actions

let spec_of_string str =
  let parts =
    String.split_on_char ',' (String.lowercase_ascii (String.trim str))
    |> List.map String.trim
    |> List.filter (fun s -> s <> "")
  in
  match parts with
  | [] -> Error "empty controller spec"
  | head :: overrides when head = "slo" || head = "default" ->
      let apply acc kv =
        match acc with
        | Error _ -> acc
        | Ok spec -> (
            match String.index_opt kv '=' with
            | None -> Error (Printf.sprintf "expected key=value, got %S" kv)
            | Some i -> (
                let key = String.sub kv 0 i in
                let v = String.sub kv (i + 1) (String.length kv - i - 1) in
                match (key, int_of_string_opt v) with
                | _, None -> Error (Printf.sprintf "bad integer in %S" kv)
                | "min-threshold", Some n when n >= 1 ->
                    Ok { spec with min_threshold = n }
                | "max-k", Some n when n >= 1 -> Ok { spec with max_k = n }
                | "max-sw-capacity", Some n when n >= 1 ->
                    Ok { spec with max_sw_capacity = n }
                | "cooldown", Some n when n >= 0 -> Ok { spec with cooldown = n }
                | "max-actions", Some n when n >= 0 ->
                    Ok { spec with max_actions = n }
                | ("min-threshold" | "max-k" | "max-sw-capacity"), Some _ ->
                    Error (Printf.sprintf "%s must be >= 1" key)
                | ("cooldown" | "max-actions"), Some _ ->
                    Error (Printf.sprintf "%s must be >= 0" key)
                | _ -> Error (Printf.sprintf "unknown controller key %S" key)))
      in
      List.fold_left apply (Ok default_spec) overrides
  | head :: _ ->
      Error
        (Printf.sprintf "unknown controller spec %S (expected slo[,key=value...])"
           head)

type action = {
  act_window : int;
  act_knob : string;
  act_level : string;
  act_from : string;
  act_to : string;
  act_reason : string;
}

(* Miss-cause deltas for one window: the [Metrics] per-level miss causes
   summed across levels. *)
type causes = { cold : int; deferred : int; pressure : int; stall : int }

let zero_causes = { cold = 0; deferred = 0; pressure = 0; stall = 0 }

type t = {
  spec : spec;
  mutable tick : int;  (* observations so far; drives cooldowns *)
  cooldowns : (string, int) Hashtbl.t;  (* knob key -> tick last actuated *)
  mutable prev : causes;  (* cumulative baselines for the deltas *)
  mutable acts : action list;  (* reverse chronological *)
}

let create ?(spec = default_spec) () =
  { spec; tick = 0; cooldowns = Hashtbl.create 8; prev = zero_causes; acts = [] }

let actions t = List.rev t.acts

let action_json a =
  Schema.line Schema.Controller_action
    [
      ("window", Json.Int a.act_window);
      ("knob", Json.Str a.act_knob);
      ("level", Json.Str a.act_level);
      ("from", Json.Str a.act_from);
      ("to", Json.Str a.act_to);
      ("reason", Json.Str a.act_reason);
    ]

(* ----------------------------- observe ------------------------------- *)

(* Expired and revalidated misses are in no bucket: those entries died of
   old age or a rule change, not of the knobs this controller owns. *)
let cumulative_causes dp =
  let levels = Metrics.levels (Datapath.metrics dp) in
  let sum cause =
    List.fold_left (fun acc l -> acc + Metrics.cause_misses l cause) 0 levels
  in
  {
    cold = sum Metrics.Cold;
    deferred = sum Metrics.Deferred_admission;
    pressure = sum Metrics.Pressure_evicted;
    stall = sum Metrics.Tag_chain_stall;
  }

let dominant c =
  (* Deterministic priority on ties: pressure (most actionable) beats
     deferred beats stall beats cold. *)
  List.fold_left
    (fun (best_tag, best_n) (tag, n) ->
      if n > best_n then (tag, n) else (best_tag, best_n))
    ("pressure", c.pressure)
    [ ("deferred", c.deferred); ("stall", c.stall); ("cold", c.cold) ]
  |> fst

(* ------------------------------ decide ------------------------------- *)

let violated prefix w =
  List.exists
    (fun v ->
      String.length v >= String.length prefix
      && String.sub v 0 (String.length prefix) = prefix)
    w.Loadtest.w_violations

(* Candidate moves.  Each returns [Some (knob_key, perform)] when feasible
   on the current datapath state, where [perform ()] mutates the knob and
   returns the action record's (knob, level, from, to). *)

let move_lower_threshold t dp =
  match (Datapath.config dp).Datapath.admission with
  | Heavy_hitter.Heavy_hitter { k; threshold }
    when threshold > t.spec.min_threshold ->
      let threshold' = max t.spec.min_threshold (threshold / 2) in
      Some
        ( "admission.threshold",
          fun () ->
            Datapath.set_admission dp
              (Heavy_hitter.Heavy_hitter { k; threshold = threshold' });
            ("admission", "", string_of_int threshold, string_of_int threshold')
        )
  | _ -> None

let move_raise_threshold _t dp =
  match (Datapath.config dp).Datapath.admission with
  | Heavy_hitter.Heavy_hitter { k; threshold } when threshold < threshold_ceiling
    ->
      let threshold' = min threshold_ceiling (max 1 threshold * 2) in
      Some
        ( "admission.threshold",
          fun () ->
            Datapath.set_admission dp
              (Heavy_hitter.Heavy_hitter { k; threshold = threshold' });
            ("admission", "", string_of_int threshold, string_of_int threshold')
        )
  | _ -> None

let move_grow_k t dp =
  match (Datapath.config dp).Datapath.admission with
  | Heavy_hitter.Heavy_hitter { k; threshold } when k < t.spec.max_k ->
      let k' = min t.spec.max_k (k * 2) in
      Some
        ( "admission.k",
          fun () ->
            Datapath.set_admission dp
              (Heavy_hitter.Heavy_hitter { k = k'; threshold });
            ("admission", "", Printf.sprintf "k=%d" k, Printf.sprintf "k=%d" k')
        )
  | _ -> None

(* Flip the first still-rejecting hardware level to LRU (walk order); one
   level per action, so a two-level NIC takes two windows to converge —
   bounded actuation by construction. *)
let move_hw_evict_lru _t dp =
  List.find_map
    (fun l ->
      if
        Cache_level.tier l = Cache_level.Hardware
        && Cache_level.evict_policy l = Evict.Reject
      then
        let name = Cache_level.name l in
        Some
          ( "evict:" ^ name,
            fun () ->
              Datapath.set_evict_policy dp ~level:name Evict.Lru;
              ("evict", name, Evict.to_string Evict.Reject,
               Evict.to_string Evict.Lru) )
      else None)
    (Datapath.levels dp)

(* Double the deepest growable software level's admission bound (the
   wildcard / cuckoo tail absorbs the slowpath storm that blows the
   latency SLO). *)
let move_grow_sw_capacity t dp =
  List.find_map
    (fun l ->
      let cap = Cache_level.capacity l in
      if Cache_level.tier l = Cache_level.Software && cap < t.spec.max_sw_capacity
      then
        let name = Cache_level.name l in
        Some
          ( "capacity:" ^ name,
            fun () ->
              Datapath.set_level_capacity dp ~level:name
                (min t.spec.max_sw_capacity (cap * 2));
              (* Re-read: the cuckoo clamps to its slot geometry. *)
              ( "capacity",
                name,
                string_of_int cap,
                string_of_int (Cache_level.capacity l) ) )
      else None)
    (List.rev (Datapath.levels dp))

(* ------------------------------ actuate ------------------------------ *)

let cooled_down t key =
  match Hashtbl.find_opt t.cooldowns key with
  | None -> true
  | Some t0 -> t.tick - t0 > t.spec.cooldown

let on_window t dp w =
  t.tick <- t.tick + 1;
  let cum = cumulative_causes dp in
  let d =
    {
      cold = cum.cold - t.prev.cold;
      deferred = cum.deferred - t.prev.deferred;
      pressure = cum.pressure - t.prev.pressure;
      stall = cum.stall - t.prev.stall;
    }
  in
  t.prev <- cum;
  if w.Loadtest.w_violations <> [] then begin
    let hit_viol = violated "hw_hit_rate" w in
    let lat_viol =
      violated "p50_us" w || violated "p99_us" w || violated "p999_us" w
    in
    let drop_viol = violated "drop_rate" w in
    let cause = dominant d in
    let reason =
      Printf.sprintf "%s; %s-dominant misses (cold=%d deferred=%d pressure=%d stall=%d)"
        (String.concat ", " w.Loadtest.w_violations)
        cause d.cold d.deferred d.pressure d.stall
    in
    (* Remedy ladder for this observation, most targeted first. *)
    let moves =
      (if hit_viol then
         match cause with
         | "deferred" -> [ move_lower_threshold; move_grow_k; move_hw_evict_lru ]
         | "pressure" | "stall" -> [ move_hw_evict_lru; move_raise_threshold ]
         | _ (* cold *) ->
             [ move_hw_evict_lru; move_lower_threshold; move_grow_sw_capacity ]
       else [])
      @
      if lat_viol || drop_viol then [ move_grow_sw_capacity; move_hw_evict_lru ]
      else []
    in
    let budget = ref t.spec.max_actions in
    List.iter
      (fun move ->
        if !budget > 0 then
          match move t dp with
          | Some (key, perform) when cooled_down t key ->
              let act_knob, act_level, act_from, act_to = perform () in
              Hashtbl.replace t.cooldowns key t.tick;
              decr budget;
              t.acts <-
                {
                  act_window = w.Loadtest.w_index;
                  act_knob;
                  act_level;
                  act_from;
                  act_to;
                  act_reason = reason;
                }
                :: t.acts
          | Some _ | None -> ())
      moves
  end
