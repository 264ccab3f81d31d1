//! Cyberaide Shell: the toolkit's command-line layer.
//!
//! "Several tools have been developed under the Cyberaide banner;
//! well-known examples are Cyberaide toolkit and Cyberaide Shell" (§III).
//! The shell is a thin, scriptable command interpreter over the
//! [`CyberaideAgent`]: authenticate, inspect the Grid, stage files, submit
//! jobs, and poll output — the workflow a 2010 grid user ran by hand, and
//! the workflow onServe automates.
//!
//! Commands (see [`Shell::help`]):
//!
//! ```text
//! auth <user> <passphrase>
//! logout
//! info
//! stage <site> <name> <bytes>
//! submit <site> <exe> <runtime_s> <output_bytes> [arg ...]
//! status <site> <job>
//! poll <site> <job>
//! wait <site> <job> [interval_s]
//! help
//! ```

use std::cell::RefCell;
use std::rc::Rc;

use gridsim::gram::{ExecutionModel, JobHandle};
use simkit::{Duration, Sim};

use crate::agent::{CyberaideAgent, PollResult, SessionId};
use crate::poller::OutputPoller;

/// Completion continuation of one command: the rendered output or an
/// error line.
pub type ShellDone = Box<dyn FnOnce(&mut Sim, Result<String, String>)>;

/// A script run's collected `(command, result)` lines.
pub type Transcript = Vec<(String, Result<String, String>)>;

/// Completion continuation of a whole script run.
type ScriptDone = Box<dyn FnOnce(&mut Sim, Transcript)>;

/// The interpreter. Holds the login session and the handles of jobs
/// submitted through it (so `status`/`poll`/`wait` can refer to them by
/// number).
pub struct Shell {
    agent: Rc<CyberaideAgent>,
    session: RefCell<Option<SessionId>>,
    jobs: RefCell<Vec<JobHandle>>,
}

/// Split a command line into tokens, honouring double quotes.
pub fn tokenize(line: &str) -> Result<Vec<String>, String> {
    let mut out = Vec::new();
    let mut cur = String::new();
    let mut in_quotes = false;
    let mut had_any = false;
    for c in line.chars() {
        match c {
            '"' => {
                in_quotes = !in_quotes;
                had_any = true;
            }
            c if c.is_whitespace() && !in_quotes => {
                if had_any {
                    out.push(std::mem::take(&mut cur));
                    had_any = false;
                }
            }
            c => {
                cur.push(c);
                had_any = true;
            }
        }
    }
    if in_quotes {
        return Err("unterminated quote".into());
    }
    if had_any {
        out.push(cur);
    }
    Ok(out)
}

impl Shell {
    /// A shell bound to an agent.
    pub fn new(agent: Rc<CyberaideAgent>) -> Rc<Shell> {
        Rc::new(Shell {
            agent,
            session: RefCell::new(None),
            jobs: RefCell::new(Vec::new()),
        })
    }

    /// The help text.
    pub fn help() -> &'static str {
        "commands:\n\
         \x20 auth <user> <passphrase>                   open a Grid session via MyProxy\n\
         \x20 logout                                     drop the session\n\
         \x20 info                                       site load snapshot\n\
         \x20 stage <site> <name> <bytes>                stage a file to a site\n\
         \x20 submit <site> <exe> <runtime_s> <out_b> [arg ...]   submit a job\n\
         \x20 status <site> <job>                        GRAM status query\n\
         \x20 poll <site> <job>                          one tentative output request\n\
         \x20 wait <site> <job> [interval_s]             poll until the job finishes\n\
         \x20 help                                       this text"
    }

    /// Current session, if logged in.
    pub fn session(&self) -> Option<SessionId> {
        *self.session.borrow()
    }

    fn require_session(&self) -> Result<SessionId, String> {
        self.session.borrow().ok_or_else(|| "not authenticated (use: auth <user> <pass>)".into())
    }

    fn job(&self, idx_text: &str) -> Result<JobHandle, String> {
        let idx: usize = idx_text
            .parse()
            .map_err(|_| format!("bad job number: {idx_text}"))?;
        self.jobs
            .borrow()
            .get(idx)
            .cloned()
            .ok_or_else(|| format!("no such job: {idx}"))
    }

    fn site(
        &self,
        name: &str,
    ) -> Result<Rc<gridsim::GridSite>, String> {
        self.agent
            .grid()
            .site(name)
            .map(Rc::clone)
            .map_err(|e| e.to_string())
    }

    /// Execute one command line; `done` receives the rendered output.
    pub fn exec(self: &Rc<Self>, sim: &mut Sim, line: &str, done: ShellDone) {
        let respond_now = |sim: &mut Sim, done: ShellDone, r: Result<String, String>| {
            sim.schedule(Duration::ZERO, move |sim| done(sim, r));
        };
        let tokens = match tokenize(line) {
            Ok(t) => t,
            Err(e) => return respond_now(sim, done, Err(e)),
        };
        let Some(cmd) = tokens.first().map(String::as_str) else {
            return respond_now(sim, done, Ok(String::new()));
        };
        let args: Vec<&str> = tokens.iter().skip(1).map(String::as_str).collect();
        match (cmd, args.as_slice()) {
            ("help", _) => respond_now(sim, done, Ok(Self::help().to_owned())),
            ("auth", [user, pass]) => {
                let shell = Rc::clone(self);
                let user2 = (*user).to_owned();
                self.agent
                    .authenticate(sim, user, pass, move |sim, r| match r {
                        Ok(sid) => {
                            *shell.session.borrow_mut() = Some(sid);
                            done(sim, Ok(format!("session {sid} opened for {user2}")));
                        }
                        Err(e) => done(sim, Err(format!("authentication failed: {e}"))),
                    });
            }
            ("logout", []) => {
                let r = match self.session.borrow_mut().take() {
                    Some(sid) => {
                        self.agent.logout(sid);
                        Ok("logged out".to_owned())
                    }
                    None => Err("no session".to_owned()),
                };
                respond_now(sim, done, r);
            }
            ("info", []) => {
                let mut out = String::from("site        cores  free  queued  est.wait\n");
                for i in self.agent.grid().info(sim.now()) {
                    let wait = if i.est_wait == Duration::MAX {
                        "inf".to_owned()
                    } else {
                        format!("{:.0}s", i.est_wait.as_secs_f64())
                    };
                    out.push_str(&format!(
                        "{:<11} {:>5} {:>5} {:>7} {:>9}\n",
                        i.name, i.total_cores, i.free_cores, i.queue_len, wait
                    ));
                }
                respond_now(sim, done, Ok(out));
            }
            ("stage", [site, name, bytes]) => {
                let parsed: Result<(SessionId, Rc<gridsim::GridSite>, f64), String> = (|| {
                    let sid = self.require_session()?;
                    let site = self.site(site)?;
                    let bytes: f64 = bytes.parse().map_err(|_| format!("bad size: {bytes}"))?;
                    Ok((sid, site, bytes))
                })();
                match parsed {
                    Err(e) => respond_now(sim, done, Err(e)),
                    Ok((sid, site, bytes)) => {
                        let name2 = (*name).to_owned();
                        let site_name = site.name().to_owned();
                        self.agent
                            .stage_file(sim, sid, &site, name, bytes, move |sim, r| match r {
                                Ok(()) => done(
                                    sim,
                                    Ok(format!("staged {name2} ({bytes:.0} B) to {site_name}")),
                                ),
                                Err(e) => done(sim, Err(format!("staging failed: {e}"))),
                            });
                    }
                }
            }
            ("submit", [site, exe, runtime, out_bytes, rest @ ..]) => {
                let parsed: Result<_, String> = (|| {
                    let sid = self.require_session()?;
                    let site = self.site(site)?;
                    let runtime: u64 =
                        runtime.parse().map_err(|_| format!("bad runtime: {runtime}"))?;
                    let out_b: f64 = out_bytes
                        .parse()
                        .map_err(|_| format!("bad output size: {out_bytes}"))?;
                    Ok((sid, site, runtime, out_b))
                })();
                match parsed {
                    Err(e) => respond_now(sim, done, Err(e)),
                    Ok((sid, site, runtime, out_b)) => {
                        let jd = self
                            .agent
                            .generate_job_description(
                                exe,
                                &rest.iter().map(|s| s.to_string()).collect::<Vec<_>>(),
                                &format!("{exe}.out"),
                            )
                            .walltime(Duration::from_secs(runtime * 4 + 600));
                        let exec = ExecutionModel {
                            actual_runtime: Duration::from_secs(runtime),
                            output_bytes: out_b,
                        };
                        let shell = Rc::clone(self);
                        self.agent.clone().submit_job(
                            sim,
                            sid,
                            &site,
                            &jd,
                            exec,
                            move |sim, r| match r {
                                Ok(handle) => {
                                    let idx = shell.jobs.borrow().len();
                                    let site = handle.site.clone();
                                    shell.jobs.borrow_mut().push(handle);
                                    done(sim, Ok(format!("job {idx} submitted to {site}")));
                                }
                                Err(e) => done(sim, Err(format!("submission failed: {e}"))),
                            },
                        );
                    }
                }
            }
            ("status", [site, job]) => {
                let parsed: Result<_, String> = (|| {
                    let sid = self.require_session()?;
                    Ok((sid, self.site(site)?, self.job(job)?))
                })();
                match parsed {
                    Err(e) => respond_now(sim, done, Err(e)),
                    Ok((sid, site, handle)) => {
                        self.agent
                            .job_status(sim, sid, &site, &handle, move |sim, r| match r {
                                Ok(state) => done(sim, Ok(format!("{state:?}"))),
                                Err(e) => done(
                                    sim,
                                    Err(format!("status failed: {e} — use 'poll' instead")),
                                ),
                            });
                    }
                }
            }
            ("poll", [site, job]) => {
                let parsed: Result<_, String> = (|| {
                    let sid = self.require_session()?;
                    Ok((sid, self.site(site)?, self.job(job)?))
                })();
                match parsed {
                    Err(e) => respond_now(sim, done, Err(e)),
                    Ok((sid, site, handle)) => {
                        self.agent
                            .poll_output(sim, sid, &site, &handle, move |sim, r| match r {
                                Ok(PollResult::NotReady) => {
                                    done(sim, Ok("no output yet".to_owned()))
                                }
                                Ok(PollResult::Partial(b)) => {
                                    done(sim, Ok(format!("running: {b:.0} B of output so far")))
                                }
                                Ok(PollResult::Complete(b)) => {
                                    done(sim, Ok(format!("complete: {b:.0} B of output")))
                                }
                                Ok(PollResult::Failed(o)) => {
                                    done(sim, Err(format!("job failed: {o:?}")))
                                }
                                Err(e) => done(sim, Err(format!("poll failed: {e}"))),
                            });
                    }
                }
            }
            ("wait", [site, job, rest @ ..]) => {
                let parsed: Result<_, String> = (|| {
                    let sid = self.require_session()?;
                    let interval = match rest {
                        [] => 9u64,
                        [secs] => secs.parse().map_err(|_| format!("bad interval: {secs}"))?,
                        _ => return Err("usage: wait <site> <job> [interval_s]".into()),
                    };
                    Ok((sid, self.site(site)?, self.job(job)?, interval))
                })();
                match parsed {
                    Err(e) => respond_now(sim, done, Err(e)),
                    Ok((sid, site, handle, interval)) => {
                        OutputPoller {
                            interval: Duration::from_secs(interval),
                            timeout: Duration::from_secs(7 * 86400),
                        }
                        .start(
                            sim,
                            Rc::clone(&self.agent),
                            sid,
                            site,
                            handle,
                            move |sim, r| match r {
                                Ok(stats) => done(
                                    sim,
                                    Ok(format!(
                                        "done: {:.0} B of output after {} polls",
                                        stats.final_bytes, stats.polls
                                    )),
                                ),
                                Err((e, stats)) => done(
                                    sim,
                                    Err(format!("wait failed after {} polls: {e}", stats.polls)),
                                ),
                            },
                        );
                    }
                }
            }
            (cmd, _) => respond_now(
                sim,
                done,
                Err(format!("unknown command or bad arguments: {cmd} (try 'help')")),
            ),
        }
    }

    /// Run a script: execute lines sequentially (each command starts when
    /// the previous one finished), collecting `(line, result)` transcripts.
    pub fn run_script<F>(self: &Rc<Self>, sim: &mut Sim, lines: Vec<String>, done: F)
    where
        F: FnOnce(&mut Sim, Transcript) + 'static,
    {
        fn step(
            shell: Rc<Shell>,
            sim: &mut Sim,
            mut remaining: std::vec::IntoIter<String>,
            mut transcript: Transcript,
            done: ScriptDone,
        ) {
            match remaining.next() {
                None => done(sim, transcript),
                Some(line) => {
                    let shell2 = Rc::clone(&shell);
                    let line2 = line.clone();
                    shell.exec(
                        sim,
                        &line,
                        Box::new(move |sim, result| {
                            transcript.push((line2, result));
                            step(shell2, sim, remaining, transcript, done);
                        }),
                    );
                }
            }
        }
        step(
            Rc::clone(self),
            sim,
            lines.into_iter(),
            Vec::new(),
            Box::new(done),
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::agent::tests::fixture;
    use crate::agent::AgentConfig;

    fn shell_world() -> (Sim, Rc<Shell>) {
        let mut sim = Sim::new(77);
        let f = fixture(&mut sim, AgentConfig::default());
        (sim, Shell::new(f.agent))
    }

    fn exec_ok(sim: &mut Sim, shell: &Rc<Shell>, line: &str) -> String {
        let out: Rc<RefCell<Option<Result<String, String>>>> = Rc::new(RefCell::new(None));
        let o2 = out.clone();
        shell.exec(
            sim,
            line,
            Box::new(move |_, r| {
                *o2.borrow_mut() = Some(r);
            }),
        );
        sim.run();
        let r = out.borrow_mut().take().expect("responded");
        r.unwrap_or_else(|e| panic!("command '{line}' failed: {e}"))
    }

    fn exec_err(sim: &mut Sim, shell: &Rc<Shell>, line: &str) -> String {
        let out: Rc<RefCell<Option<Result<String, String>>>> = Rc::new(RefCell::new(None));
        let o2 = out.clone();
        shell.exec(
            sim,
            line,
            Box::new(move |_, r| {
                *o2.borrow_mut() = Some(r);
            }),
        );
        sim.run();
        let r = out.borrow_mut().take().expect("responded");
        r.expect_err("command should have failed")
    }

    #[test]
    fn tokenizer_handles_quotes() {
        assert_eq!(tokenize("a b c").unwrap(), vec!["a", "b", "c"]);
        assert_eq!(
            tokenize("submit s1 \"my tool\" 10 0").unwrap(),
            vec!["submit", "s1", "my tool", "10", "0"]
        );
        assert_eq!(tokenize("  spaced   out  ").unwrap(), vec!["spaced", "out"]);
        assert_eq!(tokenize("empty \"\" token").unwrap(), vec!["empty", "", "token"]);
        assert!(tokenize("\"open").is_err());
        assert!(tokenize("").unwrap().is_empty());
    }

    #[test]
    fn full_session_workflow() {
        let (mut sim, shell) = shell_world();
        // unauthenticated staging fails
        let e = exec_err(&mut sim, &shell, "stage tg1 a.exe 1000");
        assert!(e.contains("not authenticated"), "{e}");
        // auth
        let out = exec_ok(&mut sim, &shell, "auth alice pw");
        assert!(out.contains("session"), "{out}");
        // info lists the site
        let out = exec_ok(&mut sim, &shell, "info");
        assert!(out.contains("tg1"), "{out}");
        // stage + submit + wait
        let out = exec_ok(&mut sim, &shell, "stage tg1 app.exe 4096");
        assert!(out.contains("staged app.exe"), "{out}");
        let out = exec_ok(&mut sim, &shell, "submit tg1 app.exe 30 2048 --fast");
        assert!(out.contains("job 0 submitted"), "{out}");
        let out = exec_ok(&mut sim, &shell, "wait tg1 0");
        assert!(out.contains("done: 2048 B"), "{out}");
        // status is the broken interface by default
        let e = exec_err(&mut sim, &shell, "status tg1 0");
        assert!(e.contains("use 'poll' instead"), "{e}");
        // poll after completion reports complete
        let out = exec_ok(&mut sim, &shell, "poll tg1 0");
        assert!(out.contains("complete"), "{out}");
        // logout
        assert!(exec_ok(&mut sim, &shell, "logout").contains("logged out"));
        assert!(shell.session().is_none());
    }

    #[test]
    fn bad_inputs_are_reported() {
        let (mut sim, shell) = shell_world();
        exec_ok(&mut sim, &shell, "auth alice pw");
        assert!(exec_err(&mut sim, &shell, "bogus").contains("unknown command"));
        assert!(exec_err(&mut sim, &shell, "stage nowhere x 10").contains("no such site"));
        assert!(exec_err(&mut sim, &shell, "stage tg1 x huge").contains("bad size"));
        assert!(exec_err(&mut sim, &shell, "poll tg1 7").contains("no such job"));
        assert!(exec_err(&mut sim, &shell, "submit tg1 ghost.exe 10 0")
            .contains("submission failed"));
        assert!(exec_err(&mut sim, &shell, "auth alice wrong").contains("authentication failed"));
    }

    #[test]
    fn script_runs_sequentially_and_collects_transcript() {
        let (mut sim, shell) = shell_world();
        let script = vec![
            "auth alice pw".to_string(),
            "stage tg1 s.exe 2048".to_string(),
            "submit tg1 s.exe 10 512".to_string(),
            "wait tg1 0 3".to_string(),
            "logout".to_string(),
        ];
        let got: Rc<RefCell<Transcript>> = Rc::new(RefCell::new(Vec::new()));
        let g2 = got.clone();
        shell.run_script(&mut sim, script, move |_, transcript| {
            *g2.borrow_mut() = transcript;
        });
        sim.run();
        let t = got.borrow();
        assert_eq!(t.len(), 5);
        assert!(t.iter().all(|(_, r)| r.is_ok()), "{t:?}");
        assert!(t[3].1.as_ref().unwrap().contains("done: 512 B"));
    }

    #[test]
    fn help_lists_every_command() {
        for cmd in ["auth", "logout", "info", "stage", "submit", "status", "poll", "wait"] {
            assert!(Shell::help().contains(cmd), "help missing {cmd}");
        }
    }
}
