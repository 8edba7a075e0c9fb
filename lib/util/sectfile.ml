(* Shared sectioned/checksummed file codec; see the interface for the
   format conventions.  Checksums are 64-bit FNV-1a (Fnv): cheap,
   dependency-free, and stable across runs — corruption defense, not
   cryptography. *)

exception Bad of int * string

let failf line fmt = Printf.ksprintf (fun m -> raise (Bad (line, m))) fmt

(* ---- sized strings ---- *)

let sized s = Printf.sprintf "%d %s" (String.length s) s

let parse_sized ~line ~what s =
  match String.index_opt s ' ' with
  | None -> failf line "malformed %s (expected \"<len> <text>\")" what
  | Some i -> (
    match int_of_string_opt (String.sub s 0 i) with
    | None -> failf line "malformed %s length %S" what (String.sub s 0 i)
    | Some len when len < 0 -> failf line "negative %s length" what
    | Some len ->
      let avail = String.length s - i - 1 in
      if len > avail then
        failf line "declared %s length %d exceeds the line (%d bytes left)"
          what len avail
      else if len < avail then failf line "trailing bytes after %s" what
      else String.sub s (i + 1) len)

(* ---- checksums and writing ---- *)

let checksum_of body_lines =
  Fnv.to_hex
    (List.fold_left (fun h l -> Fnv.fold (Fnv.fold h l) "\n") Fnv.seed
       body_lines)

let add_line buf l =
  Buffer.add_string buf l;
  Buffer.add_char buf '\n'

let add_section buf ~header ~body ~end_tag =
  let lines = header :: body in
  List.iter (add_line buf) lines;
  add_line buf (Printf.sprintf "%s %s" end_tag (checksum_of lines))

(* ---- lenient section scanning ---- *)

type raw = {
  rs_idx : int;
  rs_header : string;
  rs_lines : string list;
  rs_end : string option;
  rs_end_idx : int;
}

let scan ~section_start ~end_tag_of ~skip (lines : string array) ~from =
  let n = Array.length lines in
  let sections = ref [] and noise = ref [] in
  let i = ref from in
  while !i < n do
    let l = lines.(!i) in
    if section_start l then begin
      let idx = !i in
      let tag = end_tag_of l in
      let body = ref [ l ] in
      let fin = ref None in
      incr i;
      while !fin = None && !i < n && not (section_start lines.(!i)) do
        let l2 = lines.(!i) in
        if String.equal l2 tag || String.starts_with ~prefix:(tag ^ " ") l2
        then fin := Some l2
        else body := l2 :: !body;
        incr i
      done;
      sections :=
        {
          rs_idx = idx;
          rs_header = l;
          rs_lines = List.rev !body;
          rs_end = !fin;
          rs_end_idx = !i;
        }
        :: !sections
    end
    else begin
      if not (skip l) then noise := !i :: !noise;
      incr i
    end
  done;
  (List.rev !sections, List.rev !noise)

let checksum_ok rs =
  match rs.rs_end with
  | None -> false
  | Some endl -> (
    match String.split_on_char ' ' endl with
    | [ _tag; h ] -> String.equal h (checksum_of rs.rs_lines)
    | _ -> false)

(* ---- strict sequential reading ---- *)

type cursor = { lines : string array; mutable pos : int }

let cursor lines = { lines; pos = 0 }

let next c =
  if c.pos >= Array.length c.lines then
    failf (Array.length c.lines) "unexpected end of file"
  else begin
    c.pos <- c.pos + 1;
    c.lines.(c.pos - 1)
  end

let expect c l =
  let got = next c in
  if not (String.equal got l) then failf c.pos "expected %S, got %S" l got

let strict_section c ~header ~end_tag =
  expect c header;
  let body = ref [ header ] in
  let rec go () =
    let l = next c in
    if String.starts_with ~prefix:(end_tag ^ " ") l then begin
      let crc =
        String.sub l
          (String.length end_tag + 1)
          (String.length l - String.length end_tag - 1)
      in
      if not (String.equal crc (checksum_of (List.rev !body))) then
        failf c.pos "%s checksum mismatch" end_tag;
      List.tl (List.rev !body)
    end
    else begin
      body := l :: !body;
      go ()
    end
  in
  go ()

let at_end c =
  let n = Array.length c.lines in
  c.pos = n || (c.pos = n - 1 && String.equal c.lines.(c.pos) "")

let split_lines text = Array.of_list (String.split_on_char '\n' text)

(* ---- files ---- *)

let read_file path =
  let ic = open_in_bin path in
  let n = in_channel_length ic in
  let text =
    try really_input_string ic n
    with e ->
      close_in_noerr ic;
      raise e
  in
  close_in ic;
  text

let rec mkdir_p dir =
  if not (Sys.file_exists dir) then begin
    mkdir_p (Filename.dirname dir);
    try Sys.mkdir dir 0o755
    with Sys_error _ -> () (* lost a race, or unwritable: caller copes *)
  end

(* ---- crash-point injection ----

   Fault-injection for crash-consistency tests: named points in the
   write paths call [crash_point]; when the armed spec matches, the
   hook fires.  The default hook prints and exits(42) — the behaviour a
   kill -9 at that instant would have — so CI can arm a point via the
   FISHER92_CRASH_AT environment knob and observe a genuine dead
   process.  In-process harnesses replace [crash_hook] with one that
   raises {!Crash} and arm points by setting [crash_spec] directly. *)

exception Crash of string

let crash_spec : string option ref = ref (Env.crash_at ())

let crash_hook : (string -> unit) ref =
  ref (fun label ->
      Printf.eprintf "fisher92: injected crash at %s\n%!" label;
      exit 42)

let crash_counts : (string, int) Hashtbl.t = Hashtbl.create 8
let crash_reset () = Hashtbl.reset crash_counts

let crash_point label =
  match !crash_spec with
  | None -> ()
  | Some spec ->
    let want, nth =
      match String.index_opt spec ':' with
      | None -> (spec, 1)
      | Some i -> (
        ( String.sub spec 0 i,
          match
            int_of_string_opt
              (String.sub spec (i + 1) (String.length spec - i - 1))
          with
          | Some n when n >= 1 -> n
          | Some _ | None -> 1 ))
    in
    if String.equal want label then begin
      let seen =
        1 + (match Hashtbl.find_opt crash_counts label with
            | Some n -> n
            | None -> 0)
      in
      Hashtbl.replace crash_counts label seen;
      if seen = nth then !crash_hook label
    end

let write_atomic ?label ~path ~tmp_prefix text =
  let label = match label with Some l -> l | None -> tmp_prefix in
  crash_point (label ^ ".before_write");
  let dir = Filename.dirname path in
  let tmp, oc =
    Filename.open_temp_file ~mode:[ Open_binary ] ~temp_dir:dir tmp_prefix
      ".tmp"
  in
  let cleanup () = try Sys.remove tmp with Sys_error _ -> () in
  try
    (try
       (* two halves around a crash point, so an armed mid_write leaves
          a torn temp file — which the rename discipline must render
          harmless *)
       let half = String.length text / 2 in
       output_string oc (String.sub text 0 half);
       flush oc;
       crash_point (label ^ ".mid_write");
       output_string oc (String.sub text half (String.length text - half));
       close_out oc
     with e ->
       close_out_noerr oc;
       raise e);
    crash_point (label ^ ".before_rename");
    Sys.rename tmp path;
    crash_point (label ^ ".after_rename")
  with e ->
    cleanup ();
    raise e
