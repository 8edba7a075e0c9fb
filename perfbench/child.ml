(* Every measured iteration runs in a fresh process: the benchmark
   re-executes itself with ["child"; ...] arguments.  A child writes
   "key<TAB>value" lines to a result file; the parent times the process
   from outside (monotonic wall, user+sys from Unix.times) and reads the
   file back. *)

let write path kvs =
  Out_channel.with_open_bin path (fun oc ->
      List.iter (fun (k, v) -> Printf.fprintf oc "%s\t%s\n" k v) kvs)

let read path =
  In_channel.with_open_bin path In_channel.input_all
  |> String.split_on_char '\n'
  |> List.filter_map (fun line ->
         match String.index_opt line '\t' with
         | Some i ->
           Some
             ( String.sub line 0 i,
               String.sub line (i + 1) (String.length line - i - 1) )
         | None -> None)

let get r k =
  match List.assoc_opt k r with
  | Some v -> v
  | None -> failwith ("child result lacks " ^ k)

let getf r k = float_of_string (get r k)
let geti r k = int_of_string (get r k)

(* [(suffix, value)] of every key starting with [prefix], in order. *)
let with_prefix r prefix =
  let n = String.length prefix in
  List.filter_map
    (fun (k, v) ->
      if String.starts_with ~prefix k then
        Some (String.sub k n (String.length k - n), v)
      else None)
    r

let floats r prefix =
  List.map (fun (k, v) -> (k, float_of_string v)) (with_prefix r prefix)

let f x = Printf.sprintf "%.17g" x

(* Peak resident set of this process, from the kernel's high-water mark. *)
let peak_rss_kb () =
  In_channel.with_open_text "/proc/self/status" In_channel.input_all
  |> String.split_on_char '\n'
  |> List.find_map (fun line ->
         match String.split_on_char ':' line with
         | [ "VmHWM"; v ] ->
           Scanf.sscanf_opt (String.trim v) "%d kB" (fun kb -> kb)
         | _ -> None)
  |> function
  | Some kb -> kb
  | None -> failwith "no VmHWM in /proc/self/status"

type run = {
  wall : float;
  cpu : float;  (** user + sys *)
  sys : float;
  result : (string * string) list;
}

let rec waitpid pid =
  try Unix.waitpid [] pid
  with Unix.Unix_error (Unix.EINTR, _, _) -> waitpid pid

(* Run [child args] with [env] overrides, its stdout to [stdout].
   [args] must name the result file the child writes, [result]. *)
let spawn ?(env = []) ~stdout ~result args =
  let exe = Sys.executable_name in
  let keep kv =
    not
      (List.exists (fun (k, _) -> String.starts_with ~prefix:(k ^ "=") kv) env)
  in
  let environment =
    Array.append
      (Array.of_list (List.filter keep (Array.to_list (Unix.environment ()))))
      (Array.of_list (List.map (fun (k, v) -> k ^ "=" ^ v) env))
  in
  let out =
    Unix.openfile stdout [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC ] 0o644
  in
  let c0 = Unix.times () in
  let t0 = Clock.now () in
  let pid =
    Unix.create_process_env exe
      (Array.of_list (exe :: "child" :: args))
      environment Unix.stdin out Unix.stderr
  in
  Unix.close out;
  let _, status = waitpid pid in
  let wall = Clock.now () -. t0 in
  let c1 = Unix.times () in
  match status with
  | Unix.WEXITED 0 ->
    let sys = c1.Unix.tms_cstime -. c0.Unix.tms_cstime in
    {
      wall;
      cpu = c1.tms_cutime -. c0.tms_cutime +. sys;
      sys;
      result = read result;
    }
  | Unix.WEXITED n ->
    failwith (Printf.sprintf "child %s exited %d" (String.concat " " args) n)
  | Unix.WSIGNALED n | Unix.WSTOPPED n ->
    failwith
      (Printf.sprintf "child %s killed by signal %d" (String.concat " " args) n)

let rec rm_rf path =
  match Unix.lstat path with
  | { Unix.st_kind = Unix.S_DIR; _ } ->
    Array.iter (fun e -> rm_rf (Filename.concat path e)) (Sys.readdir path);
    Unix.rmdir path
  | _ -> Sys.remove path
  | exception Unix.Unix_error (Unix.ENOENT, _, _) -> ()

(* A fresh, empty directory. *)
let fresh_dir path =
  rm_rf path;
  let rec mk p =
    if not (Sys.file_exists p) then begin
      mk (Filename.dirname p);
      Unix.mkdir p 0o755
    end
  in
  mk path;
  path

(* What a workload run checked: operations attempted and failed, and a
   line for every failed check. *)
type tally = {
  mutable attempted : int;
  mutable failed : int;
  mutable problems : string list;  (** newest first *)
}

let tally () = { attempted = 0; failed = 0; problems = [] }
let problem t msg = t.problems <- msg :: t.problems

(* [measure 0], [measure 1], ... until [seconds] have passed (at least
   once); the results in order. *)
let for_seconds seconds measure =
  let t0 = Clock.now () in
  let rec go acc =
    if acc <> [] && Clock.now () -. t0 >= seconds then List.rev acc
    else go (measure (List.length acc) :: acc)
  in
  go []

(* The end-to-end metrics of an invocation's measured runs, and a note
   listing each run's wall and CPU time.  The gated metrics are CPU time
   and memory: on a shared host the hypervisor steals CPU in bursts that
   last minutes, which moves wall time between runs far more than any
   bound could absorb and a process's user+sys much less.  user+sys is a
   mean, since Unix.times counts 10 ms ticks and the sum over every run
   resolves finer than any one run. *)
let end_to_end ~setups runs =
  let module S = Perfbench.Sample in
  let list xs = String.concat " " (List.map (Printf.sprintf "%.4g") xs) in
  let walls = List.map (fun r -> r.wall) runs in
  let cpu = List.fold_left (fun a r -> a +. r.cpu) 0. runs in
  let rss r = getf r.result "peak_rss_kb" /. 1024. in
  ( [
      ("cpu_s", cpu /. float_of_int (List.length runs));
      ("peak_rss_mb", S.median (List.map rss runs));
      ("setup_s", S.median setups);
    ],
    Printf.sprintf
      "wall_s (not gated) median %.4g; runs' wall s: %s; runs' CPU s: %s \
       (sys %s); set-up CPU s: %s"
      (S.median walls) (list walls)
      (list (List.map (fun r -> r.cpu) runs))
      (list (List.map (fun r -> r.sys) runs))
      (list setups) )

(* What every traced run reports: the traced child [t]'s flat spans, the
   remainder of its wall time they leave unattributed, and how it
   compares with the untraced child [u] of the same invocation.  Each
   child reports "wall_s" (its own elapsed time) and "core_s" (the part
   both run). *)
let traced_metrics ~domains ~untraced:u t =
  let spans = floats t.result "span." in
  let wall = getf t.result "wall_s" in
  let unattributed = wall -. List.fold_left (fun a (_, v) -> a +. v) 0. spans in
  spans
  @ [
      ("traced_wall_s", wall);
      ("unattributed_s", unattributed);
      ("unattributed_share", unattributed /. wall);
      ("trace_overhead_s", getf t.result "core_s" -. getf u.result "core_s");
      ("util.pool.busy_ratio", u.cpu /. (u.wall *. float_of_int domains));
    ]
