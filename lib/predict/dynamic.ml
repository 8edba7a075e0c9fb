type scheme =
  | Last_direction
  | Two_bit
  | Static of Prediction.t
  | Two_level of { history_bits : int }
  | Gshare of { history_bits : int }
  | Smith of { table_bits : int }
  | Bimode of { history_bits : int; choice_bits : int }
  | Tage of { table_bits : int; tag_bits : int; histories : int list }

let scheme_name = function
  | Last_direction -> "1-bit"
  | Two_bit -> "2-bit"
  | Static _ -> "static"
  | Two_level { history_bits } -> Printf.sprintf "2-level/%d" history_bits
  | Gshare { history_bits } -> Printf.sprintf "gshare/%d" history_bits
  | Smith { table_bits } -> Printf.sprintf "smith/%d" table_bits
  | Bimode { history_bits; choice_bits = _ } ->
    Printf.sprintf "bimode/%d" history_bits
  | Tage { histories; _ } ->
    Printf.sprintf "tage/%s"
      (String.concat "-" (List.map string_of_int histories))

(* The names of the other schemes already carry every argument. *)
let scheme_key = function
  | Static _ ->
    invalid_arg "Dynamic.scheme_key: a Static scheme has no cache key"
  | Bimode { history_bits; choice_bits } ->
    Printf.sprintf "bimode/%d/c%d" history_bits choice_bits
  | Tage { table_bits; tag_bits; histories } ->
    Printf.sprintf "tage/%s/t%d/g%d"
      (String.concat "-" (List.map string_of_int histories))
      table_bits tag_bits
  | (Last_direction | Two_bit | Two_level _ | Gshare _ | Smith _) as s ->
    scheme_name s

type tally = {
  correct : int;
  incorrect : int;
  site_correct : int array;
  site_incorrect : int array;
}

let tally_percent (x : tally) =
  Fisher92_util.Stats.percent x.correct (x.correct + x.incorrect)

(* ---- kernels ----

   Each scheme is one kernel: an explicit state record and a closed
   [step state site taken] that predicts, updates and returns bit 0 =
   "prediction correct" and bit 1 = "some stored value changed".
   {!hook} and {!hook_batch} both reach it through {!step}'s match, so
   each update rule is written once.  The steps and their helpers are
   closed, [int]-annotated and [@inline]: ocamlopt without flambda
   inlines neither a closure that captures its tables nor a function
   passed as an argument, and compiles a polymorphic comparison to a
   [caml_compare] call per event. *)

(* Every table holds 1- or 2-bit counters, packed one per byte: a
   4096-entry gshare table is 4 KB instead of 32 KB of 8-byte array
   words, which keeps every zoo scheme's working set L1-resident during
   replay.  Entries are masked, or the site range-checked, before every
   access, so the unsafe byte accessors below are in range. *)
let[@inline] bget b i = Char.code (Bytes.unsafe_get b i)
let[@inline] bset b i v = Bytes.unsafe_set b i (Char.unsafe_chr v)

(* store [v] at byte [i]; 2 if that changed the stored value, else 0 *)
let[@inline] bput b i (v : int) =
  if bget b i = v then 0
  else begin
    bset b i v;
    2
  end

let[@inline] bump (c : int) taken =
  if taken then if c < 3 then c + 1 else 3 else if c > 0 then c - 1 else 0

let[@inline] verdict ok (changed : int) = Bool.to_int ok lor changed

(* newest outcome in the lowest bit *)
let[@inline] push (h : int) taken mask =
  ((h lsl 1) lor Bool.to_int taken) land mask

(* one 2-bit counter at [table.(i)]: the step shared by every
   counter-table scheme *)
let[@inline] counter_step table i taken =
  let c = bget table i in
  verdict (c >= 2 = taken) (bput table i (bump c taken))

(* 1-bit: per-site 0/1, predict whatever the branch last did; 2-bit
   is [counter_step] on a per-site table *)
let[@inline] last_step st site taken =
  let d = Bool.to_int taken in
  let ok = bget st site = d in
  verdict ok (bput st site d)

let[@inline] static_step (p : Prediction.t) site taken =
  Bool.to_int (Array.unsafe_get p site = taken)

(* Smith: one shared table indexed by the site number *)
type shared = { s_table : Bytes.t; s_mask : int }

let[@inline] smith_step s site taken =
  counter_step s.s_table (site land s.s_mask) taken

(* two-level (GAg) and gshare: the history register, XOR the site for
   gshare, indexes one pattern table.  [site land p_xsel] is [site]
   for gshare and 0 for plain two-level, so one step serves both; the
   table and the register share [p_mask]. *)
type pattern = {
  p_table : Bytes.t;
  p_mask : int;
  p_xsel : int;
  mutable p_hist : int;
}

let[@inline] pattern_step s site taken =
  let i = (s.p_hist lxor (site land s.p_xsel)) land s.p_mask in
  let r = counter_step s.p_table i taken in
  s.p_hist <- push s.p_hist taken s.p_mask;
  r

(* Bi-Mode: a site-indexed choice table picks between a not-taken and
   a taken direction bank, both gshare-indexed; the register shares
   the banks' mask. *)
type bimode = {
  b_choice : Bytes.t;
  b_cmask : int;
  b_nt : Bytes.t;
  b_tk : Bytes.t;
  b_dmask : int;
  mutable b_hist : int;
}

let[@inline] bimode_step s site taken =
  let ci = site land s.b_cmask in
  let cc = bget s.b_choice ci in
  let sel = cc >= 2 in
  let bank = if sel then s.b_tk else s.b_nt in
  let r = counter_step bank ((s.b_hist lxor site) land s.b_dmask) taken in
  s.b_hist <- push s.b_hist taken s.b_dmask;
  (* Bi-Mode choice rule: don't update the selector when it disagreed
     with the outcome but the selected bank still predicted correctly
     — that agreement is the bank's bias doing its job, not evidence
     about this site. *)
  if r land 1 = 1 && sel <> taken then r
  else r lor bput s.b_choice ci (bump cc taken)

(* One tagged TAGE component: entries are (tag, 2-bit counter, useful
   bit); [tg_tag] holds -1 for never-allocated entries so a cold table
   can never produce a spurious tag match. *)
type tagged = {
  tg_hmask : int;  (* the history bits this table consumes *)
  tg_mask : int;
  tg_tagmask : int;
  tg_tag : int array;
  tg_ctr : Bytes.t;  (* 2-bit counters, one per byte *)
  tg_useful : Bytes.t;  (* useful bits, 0 / 1 *)
}

type tage = {
  t_base : Bytes.t;  (* per-site 2-bit bimodal base *)
  t_tables : tagged array;  (* shortest history first *)
  t_idx : int array;  (* scratch: each table's row for the current event *)
  t_hmask : int;
  mutable t_hist : int;
}

(* Deterministic integer mixes for TAGE index/tag hashing, with the
   site-dependent halves ([sc = site * 0x9E3779B1], [sk = (site +
   0x27d4eb2f) * 0x85EBCA6B]) computed once per event; [land] with a
   positive mask keeps the result non-negative whatever the products
   overflow to. *)
let[@inline] mix (x : int) = x lxor (x lsr 15)

let[@inline] tage_index tg sc h =
  mix (sc lxor ((h land tg.tg_hmask) * 0x85EBCA6B)) land tg.tg_mask

let[@inline] tage_tag tg sk h =
  mix ((((h land tg.tg_hmask) lxor 0x5bd1e995) * 0x9E3779B1) lxor sk)
  land tg.tg_tagmask

(* the prediction of table [q] at this event's row, or the base's for
   [q < 0] *)
let[@inline] tage_pred s site q =
  if q < 0 then bget s.t_base site >= 2
  else
    bget (Array.unsafe_get s.t_tables q).tg_ctr (Array.unsafe_get s.t_idx q)
    >= 2

(* After a mispredict, allocate one entry in a table longer than the
   provider, preferring the shortest; a useful entry is never evicted —
   instead all candidate useful bits decay, so a stubborn row frees up
   after repeated allocation pressure.  An allocation always changes a
   tag: a longer table whose tag matched would have been the
   provider. *)
let[@inline] tage_allocate s floor sk taken =
  let nt = Array.length s.t_tables in
  let q = ref floor in
  while
    !q < nt
    && bget (Array.unsafe_get s.t_tables !q).tg_useful
         (Array.unsafe_get s.t_idx !q)
       <> 0
  do
    incr q
  done;
  if !q < nt then begin
    let tg = Array.unsafe_get s.t_tables !q
    and i = Array.unsafe_get s.t_idx !q in
    Array.unsafe_set tg.tg_tag i (tage_tag tg sk s.t_hist);
    bset tg.tg_ctr i (if taken then 2 else 1);
    2
  end
  else begin
    let ch = ref 0 in
    for q = floor to nt - 1 do
      let tg = Array.unsafe_get s.t_tables q in
      ch := !ch lor bput tg.tg_useful (Array.unsafe_get s.t_idx q) 0
    done;
    !ch
  end

(* The provider is the longest-history tagged table whose tag matches;
   the alternate is the next such table (or the base bimodal).  Both
   are needed: prediction comes from the provider, the useful bit is
   set only when provider and alternate disagree. *)
let[@inline] tage_step s site taken =
  let sc = site * 0x9E3779B1 and sk = (site + 0x27d4eb2f) * 0x85EBCA6B in
  let p = ref (-1) and a = ref (-1) in
  for q = Array.length s.t_tables - 1 downto 0 do
    let tg = Array.unsafe_get s.t_tables q in
    let i = tage_index tg sc s.t_hist in
    Array.unsafe_set s.t_idx q i;
    if Array.unsafe_get tg.tg_tag i = tage_tag tg sk s.t_hist then
      if !p < 0 then p := q else if !a < 0 then a := q
  done;
  let predicted = tage_pred s site !p and altpred = tage_pred s site !a in
  let ok = predicted = taken in
  let ch =
    if !p < 0 then bput s.t_base site (bump (bget s.t_base site) taken)
    else begin
      let tg = Array.unsafe_get s.t_tables !p
      and i = Array.unsafe_get s.t_idx !p in
      let ch = bput tg.tg_ctr i (bump (bget tg.tg_ctr i) taken) in
      if predicted = altpred then ch
      else ch lor bput tg.tg_useful i (Bool.to_int ok)
    end
  in
  let ch = if ok then ch else ch lor tage_allocate s (!p + 1) sk taken in
  s.t_hist <- push s.t_hist taken s.t_hmask;
  verdict ok ch

type kernel =
  | Last_dir of Bytes.t
  | Counters of Bytes.t
  | Fixed of Prediction.t
  | Shared of shared
  | Pattern of pattern
  | Split of bimode
  | Tagged of tage

(* The scheme's kernel, dispatched per event: the match takes the same
   arm for a whole replay, and every arm inlines its closed step. *)
let[@inline] step k site taken =
  match k with
  | Last_dir st -> last_step st site taken
  | Counters st -> counter_step st site taken
  | Fixed p -> static_step p site taken
  | Shared s -> smith_step s site taken
  | Pattern s -> pattern_step s site taken
  | Split s -> bimode_step s site taken
  | Tagged s -> tage_step s site taken

(* the history register, or 0 for schemes without one *)
let snap = function
  | Pattern s -> s.p_hist
  | Split s -> s.b_hist
  | Tagged s -> s.t_hist
  | Last_dir _ | Counters _ | Fixed _ | Shared _ -> 0

type t = {
  n_sites : int;
  kernel : kernel;
  mutable correct : int;
  mutable incorrect : int;
  site_correct : int array;
  site_incorrect : int array;
}

let check_bits what bits =
  if bits < 1 || bits > 24 then
    invalid_arg (Printf.sprintf "Dynamic.create: %s out of [1, 24]" what)

let rec strictly_increasing = function
  | a :: (b :: _ as rest) -> a < b && strictly_increasing rest
  | [] | [ _ ] -> true

let check_histories histories =
  let ok =
    histories <> []
    && List.length histories <= 4
    && List.for_all (fun h -> h >= 1 && h <= 24) histories
    && strictly_increasing histories
  in
  if not ok then
    invalid_arg
      "Dynamic.create: tage histories must be 1-4 strictly increasing \
       lengths in [1, 24]"

(* Profile warming seeds exactly the state the IFPROB database can
   speak to.  Site-indexed counters take the warm direction weakly
   (one contrary outcome flips them); shared tables take a weak
   majority vote of the sites that alias to each entry; Bi-Mode's
   direction banks are biased their designed way and its choice table
   votes per entry; pattern tables lean weakly toward the global
   majority; TAGE's tagged tables stay cold — their contents are
   history-dependent, which no per-site profile can know. *)
let create ?warm scheme ~n_sites =
  (match warm with
  | Some w when Array.length w <> n_sites ->
    invalid_arg
      (Printf.sprintf
         "Dynamic.create: warm prediction covers %d sites but the predictor \
          tracks %d"
         (Array.length w) n_sites)
  | _ -> ());
  let weak dir = if dir then 2 else 1 in
  let per_site seed =
    let st = Bytes.make (max 1 n_sites) '\000' in
    Option.iter (Array.iteri (fun s dir -> bset st s (seed dir))) warm;
    st
  in
  (* cold: all zeros; warm: [fill] where no finer evidence exists *)
  let table size fill =
    Bytes.make size (Char.chr (if Option.is_some warm then fill else 0))
  in
  let voted bits =
    let size = 1 lsl bits in
    let tbl = table size 0 in
    Option.iter
      (fun w ->
        let votes = Array.make size 0 and touched = Array.make size false in
        Array.iteri
          (fun s dir ->
            let i = s land (size - 1) in
            touched.(i) <- true;
            votes.(i) <- votes.(i) + if dir then 1 else -1)
          w;
        (* ties take the taken side, matching Profile.majority_taken *)
        Array.iteri
          (fun i v -> if touched.(i) then bset tbl i (weak (v >= 0)))
          votes)
      warm;
    tbl
  in
  let pattern history_bits xsel =
    check_bits "history_bits" history_bits;
    (* no per-pattern evidence exists statically: lean every entry
       toward the profile's global majority, so the cold all-zeros
       (strong not-taken) start stops penalizing majority-taken
       programs *)
    let majority =
      match warm with
      | Some w ->
        2 * Array.fold_left (fun n d -> n + Bool.to_int d) 0 w
        >= Array.length w
      | None -> false
    in
    let size = 1 lsl history_bits in
    Pattern
      {
        p_table = table size (weak majority);
        p_mask = size - 1;
        p_xsel = xsel;
        p_hist = 0;
      }
  in
  let kernel =
    match scheme with
    | Last_direction -> Last_dir (per_site Bool.to_int)
    | Two_bit -> Counters (per_site weak)
    | Static p ->
      if Array.length p <> n_sites then
        invalid_arg
          (Printf.sprintf
             "Dynamic.create: static prediction covers %d sites but the \
              trace has %d (profile from a different build?)"
             (Array.length p) n_sites);
      Fixed p
    | Two_level { history_bits } -> pattern history_bits 0
    | Gshare { history_bits } -> pattern history_bits (-1)
    | Smith { table_bits } ->
      check_bits "table_bits" table_bits;
      Shared { s_table = voted table_bits; s_mask = (1 lsl table_bits) - 1 }
    | Bimode { history_bits; choice_bits } ->
      check_bits "history_bits" history_bits;
      check_bits "choice_bits" choice_bits;
      let dsize = 1 lsl history_bits in
      Split
        {
          b_choice = voted choice_bits;
          b_cmask = (1 lsl choice_bits) - 1;
          b_nt = table dsize 1;
          b_tk = table dsize 2;
          b_dmask = dsize - 1;
          b_hist = 0;
        }
    | Tage { table_bits; tag_bits; histories } ->
      check_bits "table_bits" table_bits;
      if tag_bits < 1 || tag_bits > 16 then
        invalid_arg "Dynamic.create: tag_bits out of [1, 16]";
      check_histories histories;
      let size = 1 lsl table_bits in
      let tagged h =
        {
          tg_hmask = (1 lsl h) - 1;
          tg_mask = size - 1;
          tg_tagmask = (1 lsl tag_bits) - 1;
          tg_tag = Array.make size (-1);
          tg_ctr = Bytes.make size '\000';
          tg_useful = Bytes.make size '\000';
        }
      in
      Tagged
        {
          t_base = per_site weak;
          t_tables = Array.of_list (List.map tagged histories);
          t_idx = Array.make (List.length histories) 0;
          t_hmask = (1 lsl List.fold_left max 1 histories) - 1;
          t_hist = 0;
        }
  in
  {
    n_sites;
    kernel;
    correct = 0;
    incorrect = 0;
    site_correct = Array.make (max 1 n_sites) 0;
    site_incorrect = Array.make (max 1 n_sites) 0;
  }

(* ---- streaming and batched replay ---- *)

let bad_site t site =
  invalid_arg
    (Printf.sprintf
       "Dynamic.hook: site %d out of range for a %d-site predictor (trace \
        and build disagree?)"
       site t.n_sites)

(* [m] identical verdicts on one range-checked site *)
let[@inline] tally_n t site ok m =
  if ok then begin
    t.correct <- t.correct + m;
    Array.unsafe_set t.site_correct site
      (Array.unsafe_get t.site_correct site + m)
  end
  else begin
    t.incorrect <- t.incorrect + m;
    Array.unsafe_set t.site_incorrect site
      (Array.unsafe_get t.site_incorrect site + m)
  end

let hook t site taken =
  if site < 0 || site >= t.n_sites then bad_site t site;
  tally_n t site (step t.kernel site taken land 1 = 1) 1

(* event [e] of a chunk, exactly as one {!hook} call *)
let[@inline] one t sites tk e =
  let site = Array.unsafe_get sites e in
  if site < 0 || site >= t.n_sites then bad_site t site;
  let r = step t.kernel site (Bytes.unsafe_get tk e <> '\000') in
  tally_n t site (r land 1 = 1) 1;
  r

let span t sites tk i len =
  for e = i to i + len - 1 do
    ignore (one t sites tk e : int)
  done

(* Fast-forward a [p]-periodic stretch of [len] events starting at
   [i0]: the decoder certifies ev.(j) = ev.(j - p) for every event of
   the stretch (a steady loop iteration, or with [p = 1] a run of
   identical events).  The driver steps whole periods, recording each
   phase's verdict in [vbuf]; once a full period is quiet — no step
   changed a stored value and [snap] (the history register) came back
   to its period-start value — the state is at a fixpoint of the
   period, so by induction every remaining event meets the same state
   as its phase did and repeats the recorded verdict.  Detecting the
   fixpoint only through actual value changes keeps this exact for
   every scheme: a period that is still training (or oscillating)
   never goes quiet and is simply stepped. *)
let stretch t vbuf sites tk i0 p len =
  let i = ref i0 and left = ref len and quiet = ref false in
  while (not !quiet) && !left >= 2 * p do
    let h0 = snap t.kernel and ch = ref 0 in
    for q = 0 to p - 1 do
      let r = one t sites tk (!i + q) in
      Bytes.unsafe_set vbuf q (Char.unsafe_chr (r land 1));
      ch := !ch lor r
    done;
    i := !i + p;
    left := !left - p;
    quiet := !ch land 2 = 0 && snap t.kernel = h0
  done;
  if !quiet then begin
    (* [m] whole periods remain; each phase repeats its recorded
       verdict on the site it was stepped with.  Only full periods are
       bulk-tallied — a partial trailing period must be stepped so the
       history register leaves the stretch holding the right
       outcomes. *)
    let m = !left / p in
    for q = 0 to p - 1 do
      tally_n t
        (Array.unsafe_get sites (!i - p + q))
        (Bytes.unsafe_get vbuf q <> '\000')
        m
    done;
    i := !i + (m * p);
    left := !left - (m * p)
  end;
  span t sites tk !i !left

let bad_chunk fmt =
  Printf.ksprintf (fun s -> invalid_arg ("Dynamic.hook_batch: " ^ s)) fmt

(* The one batched driver: a periodic head is a [p]-periodic stretch, a
   run head of length >= 2 a 1-periodic one, and each maximal span of
   single events is stepped in one call.  Every head is checked to lie
   within the chunk, so a bad descriptor raises instead of reading past
   the arrays. *)
let hook_batch t =
  let vbuf = Bytes.create 128 in
  fun sites tk rl pr n ->
    if
      n > Array.length sites
      || n > Bytes.length tk
      || n > Array.length rl
      || n > Array.length pr
    then bad_chunk "%d events overrun the chunk arrays" n;
    let i = ref 0 in
    while !i < n do
      let i0 = !i in
      let pd = Array.unsafe_get pr i0 in
      let p = if pd = 0 then 1 else pd land 0x7f in
      let len = if pd = 0 then Array.unsafe_get rl i0 else pd lsr 7 in
      if len < 1 || len > n - i0 || p = 0 then
        bad_chunk "head %d (run %d, period word %d) is not inside [0, %d)" i0
          (Array.unsafe_get rl i0) pd n;
      if len > 1 then begin
        stretch t vbuf sites tk i0 p len;
        i := i0 + len
      end
      else begin
        let j = ref (i0 + 1) in
        while
          !j < n && Array.unsafe_get pr !j = 0 && Array.unsafe_get rl !j = 1
        do
          incr j
        done;
        span t sites tk i0 (!j - i0);
        i := !j
      end
    done

let simulate_runs ?warm scheme ~n_sites feed =
  let t = create ?warm scheme ~n_sites in
  feed (hook_batch t);
  t

let reset_counts t =
  t.correct <- 0;
  t.incorrect <- 0;
  Array.fill t.site_correct 0 (Array.length t.site_correct) 0;
  Array.fill t.site_incorrect 0 (Array.length t.site_incorrect) 0

let simulate ?warm scheme ~n_sites replay =
  let t = create ?warm scheme ~n_sites in
  replay (fun site taken -> hook t site taken);
  t

let correct t = t.correct
let incorrect t = t.incorrect
let site_correct t = Array.copy t.site_correct
let site_incorrect t = Array.copy t.site_incorrect

let tally t : tally =
  {
    correct = t.correct;
    incorrect = t.incorrect;
    site_correct = Array.sub t.site_correct 0 t.n_sites;
    site_incorrect = Array.sub t.site_incorrect 0 t.n_sites;
  }

let percent_correct t =
  Fisher92_util.Stats.percent t.correct (t.correct + t.incorrect)
