"""The ``lab`` (ATT) database of the paper's sample session.

"Let us look at the lab database identified by the ATT icon; this a small
database about employees in our research center" (paper §3.1).  The paper
fixes the load-bearing facts the figures show:

* ``employee`` has no superclass, one subclass ``manager``, and **55**
  objects in its cluster (Figure 3);
* ``manager`` "is the subclass of employee as well as department", has no
  subclasses, and there are **7** instances (Figure 5);
* employees reference their department (Figure 7), departments reference
  their employees as a set (Figure 8) and their manager (Figure 9);
* employee objects display in text and picture form (Figure 6).

Everything here is deterministic so figure renderings are stable.
"""

from __future__ import annotations

import datetime
from pathlib import Path
from typing import Dict, List, Union

from repro.ode.database import Database
from repro.ode.oid import Oid

LAB_EMPLOYEE_COUNT = 55   # Figure 3
LAB_MANAGER_COUNT = 7     # Figure 5
LAB_DEPARTMENT_COUNT = 7

#: Employee names; the first few come from the paper's authors and examples
#: ("rakesh" appears in Figure 8's caption narration).
_EMPLOYEE_NAMES = [
    "rakesh", "narain", "jag", "daniel", "shaul", "alex", "bell", "carol",
    "dewayne", "elaine", "frank", "gita", "howard", "irene", "jerry",
    "kiran", "laura", "mohan", "nita", "oscar", "priya", "quentin", "rita",
    "sam", "tanya", "umesh", "vera", "walt", "xiang", "yuri", "zelda",
    "arun", "bianca", "chandra", "doug", "esther", "farid", "gail", "hank",
    "indira", "jose", "kavita", "lars", "meera", "nolan", "olga", "pete",
    "qi", "rosa", "sunil", "tara", "uma", "vijay", "wendy", "yann",
]

_MANAGER_NAMES = [
    "stroustrup", "kernighan", "ritchie", "thompson", "aho", "ullman",
    "hamming",
]

_DEPARTMENTS = [
    ("db research", "2C-401"),
    ("languages", "2C-452"),
    ("unix", "2C-501"),
    ("networking", "3B-212"),
    ("graphics", "3B-330"),
    ("theory", "2D-150"),
    ("hardware", "1A-101"),
]

_STREETS = ["600 mountain ave", "101 crawford hill", "25 lincoln pl",
            "77 summit rd", "12 maple st"]
_CITIES = ["murray hill", "holmdel", "summit", "berkeley heights"]

LAB_SCHEMA_SOURCE = """
struct Address {
    char street[24];
    char city[16];
    int zip;
};

persistent class employee {
  public:
    char name[20];
    int id;
    Date hired;
    Address addr;
    department *dept;
    int years_service() const;
  private:
    double salary;
  constraint:
    id >= 0;
    salary >= 0.0;
  trigger:
    salary_cap : salary > 150000.0 ==> salary = 150000.0;
};

persistent class department {
  public:
    char dname[20];
    char location[16];
    set<employee*> employees;
    manager *mgr;
  private:
    double budget;
};

persistent class manager : public employee, public department {
  public:
    set<employee*> reports;
  private:
    double bonus;
};
"""

#: The reference date for the computed years_service attribute (the paper
#: is from 1990, so service is measured against New Year 1990).
REFERENCE_DATE = datetime.date(1990, 1, 1)

#: Salaries above this are clamped by the lab's salary_cap trigger.
SALARY_CAP = 150_000.0

EMPLOYEE_DISPLAY_MODULE = '''\
"""Display functions for the employee class (written by the class designer).

Imports ONLY the display protocol — never the windowing backend (the
"principle of separation", paper section 4.2).
"""

from repro.dynlink.protocol import (
    DisplayResources,
    procedural_portrait,
    raster_window,
    text_window,
)

FORMATS = ("text", "picture")

_DISPLAYLIST = ["name", "id", "hired", "addr", "dept", "years_service"]


def display(buffer, request):
    if request.format_name == "picture":
        image = procedural_portrait(buffer.value("id"), 12)
        window = raster_window(
            request.window_name("picture"), image,
            title=buffer.value("name"),
        )
        return DisplayResources("picture", (window,))
    lines = []
    if request.wants("name", _DISPLAYLIST):
        lines.append("name  : " + buffer.value("name"))
    if request.wants("id", _DISPLAYLIST):
        lines.append("id    : %d" % buffer.value("id"))
    if request.wants("hired", _DISPLAYLIST):
        lines.append("hired : " + buffer.value("hired").isoformat())
    if request.wants("addr", _DISPLAYLIST):
        addr = buffer.value("addr")
        lines.append("addr  : %s, %s %05d"
                     % (addr["street"], addr["city"], addr["zip"]))
    if request.wants("dept", _DISPLAYLIST):
        dept = buffer.value("dept")
        lines.append("dept  : -> %s:%d" % (dept.cluster, dept.number)
                     if dept else "dept  : (none)")
    if request.wants("years_service", _DISPLAYLIST):
        lines.append("years : %d" % buffer.value("years_service"))
    window = text_window(
        request.window_name("text"), "\\n".join(lines),
        title="employee " + buffer.value("name"),
    )
    return DisplayResources("text", (window,))


def displaylist():
    return list(_DISPLAYLIST)


def selectlist():
    return ["name", "id", "hired", "years_service"]
'''

DEPARTMENT_DISPLAY_MODULE = '''\
"""Display function for the department class."""

from repro.dynlink.protocol import DisplayResources, text_window

FORMATS = ("text",)

_DISPLAYLIST = ["dname", "location", "employees", "mgr"]


def display(buffer, request):
    lines = []
    if request.wants("dname", _DISPLAYLIST):
        lines.append("department : " + buffer.value("dname"))
    if request.wants("location", _DISPLAYLIST):
        lines.append("location   : " + buffer.value("location"))
    if request.wants("employees", _DISPLAYLIST):
        lines.append("employees  : %d members" % len(buffer.value("employees")))
    if request.wants("mgr", _DISPLAYLIST):
        mgr = buffer.value("mgr")
        lines.append("manager    : -> %s:%d" % (mgr.cluster, mgr.number)
                     if mgr else "manager    : (none)")
    window = text_window(
        request.window_name("text"), "\\n".join(lines),
        title="department " + buffer.value("dname"),
    )
    return DisplayResources("text", (window,))


def displaylist():
    return list(_DISPLAYLIST)


def selectlist():
    return ["dname", "location"]
'''


def bind_lab_behaviours(database: Database) -> None:
    """Attach method bodies, constraints, and triggers to the lab schema.

    Catalogs persist declarations only; behaviour is process-local (as in
    Ode, where bodies live in compiled object files).  Call this after
    every :func:`Database.open` of a lab database.
    """
    behaviours = database.behaviours

    def years_service(values: Dict) -> int:
        hired = values["hired"]
        years = REFERENCE_DATE.year - hired.year
        if (REFERENCE_DATE.month, REFERENCE_DATE.day) < (hired.month, hired.day):
            years -= 1
        return years

    behaviours.bind_method("employee", "years_service", years_service)
    # The id/salary constraints and the salary_cap trigger are declared in
    # the class's O++ source (LAB_SCHEMA_SOURCE) and compiled automatically;
    # only the method body needs process-local binding.


def _address(index: int) -> Dict:
    return {
        "street": _STREETS[index % len(_STREETS)],
        "city": _CITIES[index % len(_CITIES)],
        "zip": 7000 + (index * 37) % 900,
    }


def _hire_date(index: int) -> datetime.date:
    year = 1975 + (index * 7) % 15        # 1975..1989
    month = 1 + (index * 5) % 12
    day = 1 + (index * 11) % 28
    return datetime.date(year, month, day)


def make_lab_database(root: Union[str, Path], name: str = "lab") -> Database:
    """Create the lab (ATT) database under *root* and return it open."""
    root = Path(root)
    database = Database.create(root / f"{name}.odb")
    database.set_icon("[ATT]")
    database.define_from_source(LAB_SCHEMA_SOURCE)
    bind_lab_behaviours(database)
    # Future opens re-bind automatically through the behaviours hook.
    (database.directory / "behaviours.py").write_text(
        "from repro.data.labdb import bind_lab_behaviours\n\n\n"
        "def bind(database):\n"
        "    bind_lab_behaviours(database)\n"
    )
    (database.display_dir / "employee.py").write_text(EMPLOYEE_DISPLAY_MODULE)
    (database.display_dir / "department.py").write_text(DEPARTMENT_DISPLAY_MODULE)
    # manager gets NO display module on purpose: it exercises the
    # synthesized fallback of paper §4.1.

    objects = database.objects
    # One transaction, as make_synthetic_database: one commit, not one per
    # object.  Departments first (employees reference them); manager refs
    # are patched in afterwards.
    objects.begin()
    department_oids: List[Oid] = []
    for index, (dname, location) in enumerate(_DEPARTMENTS):
        department_oids.append(
            objects.new_object("department", {
                "dname": dname,
                "location": location,
                "employees": [],
                "mgr": None,
                "budget": 250_000.0 + index * 50_000.0,
            })
        )

    employee_oids: List[Oid] = []
    members: Dict[Oid, List[Oid]] = {oid: [] for oid in department_oids}
    for index, emp_name in enumerate(_EMPLOYEE_NAMES[:LAB_EMPLOYEE_COUNT]):
        dept = department_oids[index % LAB_DEPARTMENT_COUNT]
        oid = objects.new_object("employee", {
            "name": emp_name,
            "id": index,
            "hired": _hire_date(index),
            "addr": _address(index),
            "dept": dept,
            "salary": 45_000.0 + (index * 1_337) % 60_000,
        })
        employee_oids.append(oid)
        members[dept].append(oid)

    manager_oids: List[Oid] = []
    for index, mgr_name in enumerate(_MANAGER_NAMES[:LAB_MANAGER_COUNT]):
        dept = department_oids[index % LAB_DEPARTMENT_COUNT]
        manager_oids.append(
            objects.new_object("manager", {
                "name": mgr_name,
                "id": 1000 + index,
                "hired": _hire_date(40 + index),
                "addr": _address(40 + index),
                "dept": dept,
                "salary": 95_000.0 + index * 5_000.0,
                "dname": _DEPARTMENTS[index % LAB_DEPARTMENT_COUNT][0],
                "location": _DEPARTMENTS[index % LAB_DEPARTMENT_COUNT][1],
                "employees": [],
                "mgr": None,
                "budget": 0.0,
                "reports": list(members[dept]),
                "bonus": 10_000.0 + index * 1_000.0,
            })
        )

    for index, dept_oid in enumerate(department_oids):
        objects.update(dept_oid, {
            "employees": members[dept_oid],
            "mgr": manager_oids[index % LAB_MANAGER_COUNT],
        })
    objects.commit()

    database.schema.validate()
    return database


def open_lab_database(directory: Union[str, Path]) -> Database:
    """Open an existing lab database (behaviours re-bind automatically)."""
    return Database.open(directory)
