module Fnv = Fisher92_util.Fnv
module Sectfile = Fisher92_util.Sectfile
module Env = Fisher92_util.Env
module Workload = Fisher92_workloads.Workload
module Measure = Fisher92_metrics.Measure
module Breaks = Fisher92_metrics.Breaks
module Profile = Fisher92_profile.Profile
module Vm = Fisher92_vm.Vm
module Dynamic = Fisher92_predict.Dynamic

(* Bump on any change to the entry layout: old entries then fail the
   header check and are recomputed, never misparsed. *)
let format_version = 2

let enabled = Env.cache_enabled
let cache_dir = Env.cache_dir

(* ---- dataset identity ---- *)

(* Every argument and cell is folded as its printed form plus a newline
   (decimal for ints, "%Lx" of the bits for floats) without building that
   string: this runs once per cached run, over every seeded cell. *)
let dataset_hash (d : Workload.dataset) =
  let line fold h x = Fnv.fold (fold h x) "\n" in
  let int = line Fnv.fold_decimal in
  let float h x = line Fnv.fold_hex64 h (Int64.bits_of_float x) in
  let h = Fnv.fold Fnv.seed d.ds_name in
  let h = List.fold_left int h d.ds_iargs in
  let h = line Fnv.fold h "|" in
  let h = List.fold_left float h d.ds_fargs in
  let h =
    List.fold_left
      (fun h (name, seed) ->
        let h = line Fnv.fold h ("array " ^ name) in
        match seed with
        | `Ints cells -> Array.fold_left int h cells
        | `Floats cells -> Array.fold_left float h cells)
      h d.ds_arrays
  in
  Fnv.to_hex h

(* ---- keys ---- *)

type gaps = { gap_count : int; gap_sum : int; gap_histogram : int array }

type entry = {
  run : Measure.run;
  gaps : gaps option;
  dumped : (string * int array) list;
}

type key = {
  k_program : string;
  k_fingerprint : string;
  k_n_sites : int;
  k_dataset : string;
  k_dshash : string;
  k_config : string option;  (* None for a plain run *)
  k_gaps : bool;
  k_dump : string list;
}

let bits_of (p : Fisher92_predict.Prediction.t) =
  String.init (Array.length p) (fun i -> if p.(i) then '1' else '0')

(* Only the config fields that change what a run records are keyed:
   the engines are bit-identical and fuel or output limits either trap
   (nothing is stored) or change nothing.  The bits string is "-" for no
   prediction, which no 0/1 string can equal. *)
let config_digest (c : Vm.config) =
  match (c.predicted, c.dump_arrays) with
  | None, [] -> None
  | predicted, names ->
    let bits = match predicted with None -> "-" | Some p -> bits_of p in
    Some (Fnv.hash_strings (bits :: names))

let key ?(config = Vm.default_config) ~fingerprint ~n_sites ~program d =
  if Option.is_some config.on_branch then
    invalid_arg
      "Study_cache.key: a run with an on_branch hook cannot be cached";
  {
    k_program = program;
    k_fingerprint = fingerprint;
    k_n_sites = n_sites;
    k_dataset = d.Workload.ds_name;
    k_dshash = dataset_hash d;
    k_config = config_digest config;
    k_gaps = Option.is_some config.predicted;
    k_dump = config.dump_arrays;
  }

(* File names carry the whole key, so distinct builds, datasets and
   configs never collide; the program name prefix is purely for humans.
   A plain run has no config part. *)
let entry_path k =
  let config = match k.k_config with None -> "" | Some c -> "." ^ c in
  Filename.concat (cache_dir ())
    (Printf.sprintf "%s.%s.%s%s.run" k.k_program k.k_fingerprint k.k_dshash
       config)

(* ---- serialization (the Sectfile conventions the profile db also
   follows) ---- *)

let sized = Sectfile.sized

(* The meta section every entry opens with: the whole key, [extra]
   lines included, so a parse can compare it line for line. *)
let meta_lines k extra =
  [
    "program " ^ sized k.k_program;
    "dataset " ^ sized k.k_dataset;
    "fingerprint " ^ k.k_fingerprint;
    "dshash " ^ k.k_dshash;
  ]
  @ extra
  @ [ Printf.sprintf "sites %d" k.k_n_sites ]

let config_line k = "config " ^ Option.value k.k_config ~default:"-"

let ints_line cells =
  String.concat " " (Array.to_list (Array.map string_of_int cells))

let render k (e : entry) =
  let run = e.run in
  let buf = Buffer.create 1024 in
  let section header body end_tag =
    Sectfile.add_section buf ~header ~body ~end_tag
  in
  Buffer.add_string buf (Printf.sprintf "fisher92runcache %d\n" format_version);
  section "meta" (meta_lines k [ config_line k ]) "endmeta";
  section "counts"
    [
      Printf.sprintf "instructions %d" run.counts.Breaks.instructions;
      Printf.sprintf "cond_branches %d" run.counts.Breaks.cond_branches;
      Printf.sprintf "unavoidable %d" run.counts.Breaks.unavoidable;
      Printf.sprintf "direct_call_ret %d" run.counts.Breaks.direct_call_ret;
      Printf.sprintf "jumps %d" run.counts.Breaks.jumps;
    ]
    "endcounts";
  let counters = ref [] in
  Array.iteri
    (fun s n ->
      if n > 0 then
        counters :=
          Printf.sprintf "%d %d %d" s n run.profile.Profile.taken.(s)
          :: !counters)
    run.profile.Profile.encountered;
  section "profile" (List.rev !counters) "endprofile";
  Option.iter
    (fun g ->
      section "gaps"
        [
          Printf.sprintf "count %d" g.gap_count;
          Printf.sprintf "sum %d" g.gap_sum;
          Printf.sprintf "buckets %d" (Array.length g.gap_histogram);
          ints_line g.gap_histogram;
        ]
        "endgaps")
    e.gaps;
  List.iter
    (fun (name, cells) ->
      section "dump"
        [
          "name " ^ sized name;
          Printf.sprintf "cells %d" (Array.length cells);
          ints_line cells;
        ]
        "enddump")
    e.dumped;
  Buffer.add_string buf "end\n";
  Buffer.contents buf

(* ---- parsing: strict and total.  Any deviation returns None: a
   cache entry is repopulated, never salvaged.  Sectfile's strict
   reader raises [Sectfile.Bad] on format damage; [find] converts
   both that and [Reject] into a miss. ---- *)

exception Reject

(* The gap histogram has one bucket per power of two of an int. *)
let max_buckets = Sys.int_size

let parse_sized s =
  match Sectfile.parse_sized ~line:0 ~what:"field" s with
  | payload -> payload
  | exception Sectfile.Bad _ -> raise Reject

(* [n] ints on one line.  The declared count is checked against what the
   line can hold before anything is allocated. *)
let parse_ints ~n l =
  if n = 0 then (if l <> "" then raise Reject; [||])
  else if n > (String.length l + 1) / 2 then raise Reject
  else
    let tokens = String.split_on_char ' ' l in
    if List.length tokens <> n then raise Reject;
    let cell t =
      match int_of_string_opt t with Some v -> v | None -> raise Reject
    in
    Array.of_list (List.map cell tokens)

(* the rest of line [l] after ["<prefix> "] *)
let field prefix l =
  if String.starts_with ~prefix:(prefix ^ " ") l then
    String.sub l (String.length prefix + 1)
      (String.length l - String.length prefix - 1)
  else raise Reject

let int_field prefix l =
  match int_of_string_opt (field prefix l) with
  | Some n when n >= 0 -> n
  | Some _ | None -> raise Reject

let check_meta c k extra =
  if
    not
      (List.equal String.equal
         (Sectfile.strict_section c ~header:"meta" ~end_tag:"endmeta")
         (meta_lines k extra))
  then raise Reject

(* "end" and one newline close an entry; nothing may follow *)
let check_end c text =
  if not (String.equal (Sectfile.next c) "end") then raise Reject;
  if not (Sectfile.at_end c && String.ends_with ~suffix:"\n" text) then
    raise Reject

let parse k text =
  let c = Sectfile.cursor (Sectfile.split_lines text) in
  let next () = Sectfile.next c in
  let section header end_tag = Sectfile.strict_section c ~header ~end_tag in
  let program = k.k_program and n_sites = k.k_n_sites in
  let dataset = k.k_dataset in
  if not (String.equal (next ())
            (Printf.sprintf "fisher92runcache %d" format_version))
  then raise Reject;
  check_meta c k [ config_line k ];
  let counts =
    match section "counts" "endcounts" with
    | [ a; b; c; e; f ] ->
      {
        Breaks.instructions = int_field "instructions" a;
        cond_branches = int_field "cond_branches" b;
        unavoidable = int_field "unavoidable" c;
        direct_call_ret = int_field "direct_call_ret" e;
        jumps = int_field "jumps" f;
      }
    | _ -> raise Reject
  in
  let profile = Profile.empty ~program ~n_sites in
  List.iter
    (fun l ->
      match String.split_on_char ' ' l |> List.map int_of_string_opt with
      | [ Some site; Some enc; Some taken ]
        when site >= 0 && site < n_sites && enc > 0 && taken >= 0
             && taken <= enc
             && profile.Profile.encountered.(site) = 0 ->
        profile.Profile.encountered.(site) <- enc;
        profile.Profile.taken.(site) <- taken
      | _ -> raise Reject)
    (section "profile" "endprofile");
  let gaps =
    if not k.k_gaps then None
    else
      match section "gaps" "endgaps" with
      | [ count; sum; buckets; hist ] ->
        let gap_count = int_field "count" count in
        let gap_sum = int_field "sum" sum in
        let n = int_field "buckets" buckets in
        if n > max_buckets then raise Reject;
        let gap_histogram = parse_ints ~n hist in
        if Array.exists (fun b -> b < 0) gap_histogram
           || Array.fold_left ( + ) 0 gap_histogram <> gap_count
        then raise Reject;
        Some { gap_count; gap_sum; gap_histogram }
      | _ -> raise Reject
  in
  let dumped =
    List.map
      (fun want ->
        match section "dump" "enddump" with
        | [ name; cells; values ] ->
          if not (String.equal (parse_sized (field "name" name)) want) then
            raise Reject;
          (want, parse_ints ~n:(int_field "cells" cells) values)
        | _ -> raise Reject)
      k.k_dump
  in
  check_end c text;
  { run = { Measure.program; dataset; counts; profile }; gaps; dumped }

(* ---- file operations ---- *)

(* A miss on anything unreadable or unparsable: an entry is recomputed,
   never salvaged. *)
let read_entry path parse =
  if not (enabled ()) then None
  else
    match Sectfile.read_file path with
    | exception (Sys_error _ | End_of_file) -> None
    | text -> (
      match parse text with
      | e -> Some e
      | exception (Reject | Sectfile.Bad _) -> None)

let write_entry ~path ~tmp_prefix render =
  if enabled () then begin
    let text = render () in
    let dir = cache_dir () in
    (* Best-effort: a read-only or vanished cache directory must never
       fail the study, so every syscall error is swallowed here. *)
    try
      Sectfile.mkdir_p dir;
      Sectfile.write_atomic ~path ~tmp_prefix text
    with Sys_error _ -> ()
  end

let find k = read_entry (entry_path k) (parse k)

let save k e =
  write_entry ~path:(entry_path k) ~tmp_prefix:"runcache" (fun () -> render k e)

let lookup ~fingerprint ~n_sites ~program d =
  Option.map (fun e -> e.run) (find (key ~fingerprint ~n_sites ~program d))

let store ~fingerprint d (run : Measure.run) =
  save
    (key ~fingerprint ~n_sites:(Profile.n_sites run.profile)
       ~program:run.program d)
    { run; gaps = None; dumped = [] }

(* ---- race entries ---- *)

(* Bump on any change to the race entry layout. *)
let race_version = 1

type race_key = { r_run : key; r_scheme : string; r_warm : string }

(* A warm digest is 16 hex digits, which "cold" can never equal. *)
let race_key k ?warm scheme =
  if Option.is_some k.k_config then
    invalid_arg "Study_cache.race_key: the trace key must be a plain run's";
  {
    r_run = k;
    r_scheme = Dynamic.scheme_key scheme;
    r_warm =
      (match warm with
      | None -> "cold"
      | Some p -> Fnv.hash_strings [ bits_of p ]);
  }

let race_path r =
  let k = r.r_run in
  Filename.concat (cache_dir ())
    (Printf.sprintf "%s.%s.%s.%s.race" k.k_program k.k_fingerprint k.k_dshash
       (Fnv.hash_strings [ r.r_scheme; r.r_warm ]))

let race_meta r = [ "scheme " ^ sized r.r_scheme; "warm " ^ r.r_warm ]

(* Only sites with a tallied branch get a line, in site order. *)
let render_race r (t : Dynamic.tally) =
  let n_sites = r.r_run.k_n_sites in
  let lines = ref [] in
  for s = n_sites - 1 downto 0 do
    let c = t.site_correct.(s) and i = t.site_incorrect.(s) in
    if c > 0 || i > 0 then lines := Printf.sprintf "%d %d %d" s c i :: !lines
  done;
  let buf = Buffer.create 1024 in
  Buffer.add_string buf (Printf.sprintf "fisher92race %d\n" race_version);
  Sectfile.add_section buf ~header:"meta"
    ~body:(meta_lines r.r_run (race_meta r))
    ~end_tag:"endmeta";
  Sectfile.add_section buf ~header:"tally"
    ~body:
      (Printf.sprintf "correct %d" t.correct
      :: Printf.sprintf "incorrect %d" t.incorrect
      :: Printf.sprintf "entries %d" (List.length !lines)
      :: !lines)
    ~end_tag:"endtally";
  Buffer.add_string buf "end\n";
  Buffer.contents buf

(* The entry count is checked against the site count and the lines
   present before the per-site arrays are made; every site must be in
   range and above the one before, and the per-site counts must add up
   to the totals without overflowing them. *)
let parse_race r text =
  let n_sites = r.r_run.k_n_sites in
  let c = Sectfile.cursor (Sectfile.split_lines text) in
  if
    not
      (String.equal (Sectfile.next c)
         (Printf.sprintf "fisher92race %d" race_version))
  then raise Reject;
  check_meta c r.r_run (race_meta r);
  let tally =
    match Sectfile.strict_section c ~header:"tally" ~end_tag:"endtally" with
    | correct :: incorrect :: entries :: sites ->
      let correct = int_field "correct" correct in
      let incorrect = int_field "incorrect" incorrect in
      let n = int_field "entries" entries in
      if n > n_sites || n <> List.length sites then raise Reject;
      let site_correct = Array.make n_sites 0 in
      let site_incorrect = Array.make n_sites 0 in
      let last = ref (-1) and left_c = ref correct and left_i = ref incorrect in
      List.iter
        (fun l ->
          match List.map int_of_string_opt (String.split_on_char ' ' l) with
          | [ Some s; Some sc; Some si ]
            when s > !last && s < n_sites && sc >= 0 && si >= 0
                 && (sc > 0 || si > 0)
                 && sc <= !left_c && si <= !left_i ->
            last := s;
            site_correct.(s) <- sc;
            site_incorrect.(s) <- si;
            left_c := !left_c - sc;
            left_i := !left_i - si
          | _ -> raise Reject)
        sites;
      if !left_c <> 0 || !left_i <> 0 then raise Reject;
      { Dynamic.correct; incorrect; site_correct; site_incorrect }
    | _ -> raise Reject
  in
  check_end c text;
  tally

let find_race r = read_entry (race_path r) (parse_race r)

let save_race r (t : Dynamic.tally) =
  let n_sites = r.r_run.k_n_sites in
  if
    Array.length t.site_correct <> n_sites
    || Array.length t.site_incorrect <> n_sites
  then invalid_arg "Study_cache.save_race: tally and key disagree on sites";
  write_entry ~path:(race_path r) ~tmp_prefix:"racecache" (fun () ->
      render_race r t)
