(* Monotonic seconds.  Wall-clock time can step and Unix.gettimeofday
   resolves only microseconds, too coarse for ~10 us submits. *)
let now () = Int64.to_float (Monotonic_clock.now ()) *. 1e-9

(* On-CPU seconds of the calling thread, from the scheduler's
   nanosecond counter. *)
let thread_cpu () =
  let stat =
    In_channel.with_open_text "/proc/thread-self/schedstat"
      In_channel.input_all
  in
  match String.split_on_char ' ' stat with
  | ns :: _ -> float_of_string ns *. 1e-9
  | [] -> failwith "empty /proc/thread-self/schedstat"

(* Flat spans: every span is top-level, so their sum plus the
   unattributed remainder is the traced run's wall time. *)
type spans = { tbl : (string, float) Hashtbl.t; mutable order : string list }

let spans () = { tbl = Hashtbl.create 64; order = [] }

let add s name dt =
  match Hashtbl.find_opt s.tbl name with
  | Some t -> Hashtbl.replace s.tbl name (t +. dt)
  | None ->
    Hashtbl.add s.tbl name dt;
    s.order <- name :: s.order

let timed f =
  let t0 = now () in
  let r = f () in
  (r, now () -. t0)

let span s name f =
  let r, dt = timed f in
  add s name dt;
  r

let to_list s = List.rev_map (fun n -> (n, Hashtbl.find s.tbl n)) s.order
